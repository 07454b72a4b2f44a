// Command-line parsing for every binary, kept in the library (not the
// tools) so each flag vocabulary is testable and reusable by scripts
// embedding the simulator. It sits above both `sim/` and `scenario/`: the
// options hold the scenario configs they feed.
//
// One flag registry: a binary declares a table of CliFlag rows, and that
// table drives parsing, the --help text and the value diagnostics.
// llamcat_cli's table (`cli_flags`) is the big one; the cross-flag checks
// that carry a written reason stay as code in parse_cli_options.
// llamcat_stress, llamcat_lint and the benches (bench/bench_util.hpp)
// declare a few rows each.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/enum_names.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"
#include "trace/operator.hpp"

namespace llamcat {

// -- the registry -----------------------------------------------------------

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

/// What parse_flags made of a command line.
struct FlagParse {
  bool help_requested = false;
  std::string error;  // non-empty on failure
  /// The arguments that do not start with "--", in command-line order.
  std::vector<std::string_view> positionals;
  /// The flags given, in command-line order.
  std::vector<const CliFlag*> given;
};

/// Parses `args` (without argv[0]) against `flags`, storing every value
/// through its binding. Stops at the first help request (`-h` or a kHelp
/// flag), unknown flag or malformed value.
FlagParse parse_flags(const std::vector<CliFlag>& flags,
                      const std::vector<std::string_view>& args);

/// `header`, then every flag with its help, grouped under section headings.
std::string flags_usage(std::string_view header,
                        const std::vector<CliFlag>& flags);

/// Every binary's usage contract: a help request prints `usage` to `out`
/// and returns 0; a non-empty `error` prints "error: <error>" and `usage`
/// to `err` and returns 2. Otherwise nullopt: the binary should run.
std::optional<int> report_usage_stop(bool help_requested,
                                     std::string_view error,
                                     std::string_view usage, std::ostream& out,
                                     std::ostream& err);

/// The front door of a binary configured by `flags` alone: parses `args`
/// and reports through report_usage_stop. Any positional is an error
/// unless `positionals` collects them.
std::optional<int> parse_command_line(
    const std::vector<CliFlag>& flags, std::string_view usage,
    const std::vector<std::string_view>& args, std::ostream& out,
    std::ostream& err, std::vector<std::string_view>* positionals = nullptr);

// -- llamcat_cli ------------------------------------------------------------

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

/// llamcat_cli itself (cli_main.cpp): parses `args` (without argv[0]) and
/// runs. The run's report goes to `out`, diagnostics to `err`. Returns the
/// exit code: 0 = success, 1 = a failed run or export, 2 = bad usage or an
/// invalid configuration.
int cli_main(const std::vector<std::string_view>& args, std::ostream& out,
             std::ostream& err);

// -- llamcat_stress, llamcat_lint, policy_explorer, benches -----------------

/// llamcat_stress's options.
struct StressOptions {
  std::uint64_t runs = 200;
  std::uint64_t jobs = 1;
  std::uint64_t base_seed = 1;
  std::optional<std::uint64_t> replay;
  bool verbose = false;
};
std::vector<CliFlag> stress_flags(StressOptions& opt);

/// llamcat_lint's options; its input paths are the positionals.
struct LintOptions {
  bool list_rules = false;
  std::string json_path;  // empty = no JSON; "-" = stdout
};
std::vector<CliFlag> lint_flags(LintOptions& opt);

/// examples/policy_explorer's options.
struct ExplorerOptions {
  ModelShape model = ModelShape::llama3_70b();
  std::uint64_t seq_len = 4096;
  ThrottlePolicy throttle = ThrottlePolicy::kNone;
  ArbPolicy arb = ArbPolicy::kFcfs;
  std::uint64_t llc_bytes = std::uint64_t{16} << 20;
  bool full = false;  // also dump every counter
};
std::vector<CliFlag> explorer_flags(ExplorerOptions& opt);

/// A bench's problem scale.
enum class Scale : std::uint8_t {
  kQuick,    // CI smoke: the smallest workloads that still show the effect
  kDefault,  // every regime and shape kept, the whole suite in minutes
  kPaper,    // the paper's full problem sizes (32K sequences, both models)
};
NameTable<Scale> enum_names(Scale);

/// A bench's options.
struct BenchOptions {
  Scale scale = Scale::kDefault;

  [[nodiscard]] bool quick() const { return scale == Scale::kQuick; }
  [[nodiscard]] bool paper() const { return scale == Scale::kPaper; }
};
/// A bench's table: --scale into `*scale` and --json into `*json_path`. A
/// null pointer leaves its row out, so a bench takes only the flags it
/// acts on.
std::vector<CliFlag> bench_flags(Scale* scale, std::string* json_path);

}  // namespace llamcat
