// Command-line option parsing for llamcat_cli. Kept in the
// library (not the tool) so the flag vocabulary is testable and reusable by
// scripts embedding the simulator. It sits above both `sim/` and
// `scenario/`: the options hold the scenario configs they feed.
//
// One flag registry (`cli_flags`) drives parsing, the --help text and the
// value diagnostics; the cross-flag checks that carry a written reason stay
// as code in parse_cli_options.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"
#include "trace/operator.hpp"

namespace llamcat {

/// "llama3-70b" / "70b" / ... -> the model's shape.
std::optional<ModelShape> model_from_string(std::string_view s);

/// "dynmg+BMA" / "dyncta" / "unopt+MA" -> (throttle, arbitration) pair.
struct PolicyCombo {
  ThrottlePolicy throttle = ThrottlePolicy::kNone;
  ArbPolicy arb = ArbPolicy::kFcfs;
};
std::optional<PolicyCombo> policy_combo_from_string(std::string_view s);

/// Everything the CLI can configure. `cfg` is fully assembled (Table 5
/// with overrides applied) after a successful parse.
struct CliOptions {
  SimConfig cfg;
  ModelShape model = ModelShape::llama3_70b();
  /// logit | attend | gemv | decode (pipeline) | batch (scenario subsystem)
  std::string op = "logit";
  std::uint64_t seq_len = 4096;
  std::uint64_t gemv_rows = 8192;
  std::uint32_t gemv_cols = 4096;

  // --op=batch: multi-request, multi-layer decode pass (scenario layer).
  /// Passed to the DecodePass as is.
  scenario::DecodePassConfig pass;
  /// Request count of the hand-built or generated batch.
  std::uint32_t batch_requests = 2;
  /// Per-request sequence lengths; empty = every request at `seq_len`.
  std::vector<std::uint64_t> batch_seq_lens;
  /// kContinuous: per-request arrival cycles. Size 1 broadcasts to every
  /// request; otherwise one entry per request. Empty = all arrive at 0.
  std::vector<std::uint64_t> batch_arrivals;
  /// Decode steps (tokens produced) per request; size 1 broadcasts.
  /// Empty = one step per request.
  std::vector<std::uint64_t> batch_steps;
  /// Per-request prefix-group ids and shared-prefix token counts (size 1
  /// broadcasts; a 0 token entry keeps that request fully private). Both
  /// require --kv-share=on and each other.
  std::vector<std::uint64_t> batch_prefix_groups;
  std::vector<std::uint64_t> batch_prefix_tokens;
  /// Open-loop workload generation (scenario/traffic.hpp): --traffic=P
  /// replaces the hand-built request list with one generated from
  /// `traffic_cfg` (whose num_requests is --requests).
  bool traffic = false;
  scenario::TrafficConfig traffic_cfg;
  /// Trace record/replay (scenario/traffic.hpp): --trace-out records the
  /// request list the run used; --trace-in replays a recorded trace as the
  /// batch (replacing every workload flag).
  std::string trace_out_path;  // empty = no trace export
  std::string trace_in_path;   // empty = no replay
  /// --digest: print only the canonical batch_stats_digest (for scripted
  /// replay-equivalence checks: two runs match iff their digests do).
  bool digest_only = false;
  std::string csv_path;      // empty = no CSV export
  std::string json_path;     // empty = no JSON export
  bool print_counters = false;
  bool print_energy = false;
  bool verbose = false;
};

/// What kind of value a flag takes.
enum class FlagKind : std::uint8_t {
  kHelp,      // --help
  kSwitch,    // bare --flag
  kUint,      // bounded unsigned integer
  kUintList,  // comma-separated unsigned integers (or a LO,HI pair)
  kDouble,    // finite number in a range
  kEnum,      // one name of a fixed vocabulary
  kPath,      // any string
};

/// What kind of value a flag takes and where it is stored.
struct FlagBinding {
  FlagKind kind = FlagKind::kHelp;
  /// Parses and stores a value; false when it is malformed.
  std::function<bool(std::string_view)> set = nullptr;
  /// What a well-formed value looks like, for diagnostics.
  std::string expect = "";
  /// A per-request list: its arity is checked against the batch size.
  const std::vector<std::uint64_t>* list = nullptr;
};

/// One registry entry.
struct CliFlag {
  std::string_view name;     // without the leading "--"
  std::string_view metavar;  // empty for switches
  std::string_view section;  // the --help heading it is listed under
  std::string_view help;     // '\n'-separated help lines
  FlagBinding bind;
  /// Shapes the generated workload, so it requires --traffic.
  bool needs_traffic = false;
};

/// The flag registry in --help order, bound to the fields of `opt`.
std::vector<CliFlag> cli_flags(CliOptions& opt);

/// Outcome of a parse: options, a help request, or an error message.
struct ParseResult {
  std::optional<CliOptions> options;
  bool help_requested = false;
  std::string error;  // non-empty on failure

  [[nodiscard]] bool ok() const { return options.has_value(); }
};

/// Parses `args` (without argv[0]). Unknown flags, malformed values and
/// inconsistent configurations (via SimConfig::validate) all produce a
/// ParseResult with a diagnostic error.
ParseResult parse_cli_options(const std::vector<std::string_view>& args);

/// The --help text.
std::string cli_usage();

}  // namespace llamcat
