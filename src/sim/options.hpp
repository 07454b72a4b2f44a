// Command-line option parsing for the llamcat_cli driver. Kept in the
// library (not the tool) so the string -> enum mappings are testable and
// reusable by scripts embedding the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "trace/composite.hpp"
#include "trace/operator.hpp"

namespace llamcat {

// -- string -> enum mappings (also the CLI vocabulary) -----------------------
std::optional<ArbPolicy> arb_policy_from_string(std::string_view s);
std::optional<ThrottlePolicy> throttle_policy_from_string(std::string_view s);
std::optional<RespArbPolicy> resp_arb_from_string(std::string_view s);
std::optional<TbDispatch> dispatch_from_string(std::string_view s);
std::optional<RequestDispatch> request_dispatch_from_string(
    std::string_view s);
std::optional<FuseOrder> fuse_order_from_string(std::string_view s);
std::optional<ExecutionMode> execution_mode_from_string(std::string_view s);
std::optional<AdmitPolicy> admit_policy_from_string(std::string_view s);
std::optional<KvEvictPolicy> kv_evict_policy_from_string(std::string_view s);
std::optional<ReplPolicy> repl_policy_from_string(std::string_view s);
std::optional<BypassPolicy> bypass_policy_from_string(std::string_view s);
std::optional<ModelShape> model_from_string(std::string_view s);
std::optional<TrafficProcess> traffic_process_from_string(std::string_view s);
std::optional<TrafficDist> traffic_dist_from_string(std::string_view s);

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
  std::uint32_t batch_requests = 2;
  std::uint32_t batch_layers = 2;
  /// Per-request sequence lengths; empty = every request at `seq_len`.
  std::vector<std::uint64_t> batch_seq_lens;
  /// Include the per-layer projection/FFN GEMV stage.
  bool batch_gemv = true;
  /// Independent per-operator Systems, one fused System per wave, or the
  /// long-lived streaming System (continuous batching).
  ExecutionMode batch_mode = ExecutionMode::kIndependent;
  /// kCoScheduled / kContinuous: TB interleaving across co-admitted ops.
  FuseOrder batch_interleave = FuseOrder::kRoundRobin;
  /// kContinuous: per-request arrival cycles. Size 1 broadcasts to every
  /// request; otherwise one entry per request. Empty = all arrive at 0.
  std::vector<std::uint64_t> batch_arrivals;
  /// Decode steps (tokens produced) per request; size 1 broadcasts.
  /// Empty = one step per request.
  std::vector<std::uint64_t> batch_steps;
  /// kContinuous serving-policy layer: admission discipline (none =
  /// unconditional, the raw streaming engine), aggregate peak-KV budget in
  /// bytes (0 = unlimited) and stage-boundary preemption.
  AdmitPolicy batch_admit = AdmitPolicy::kNone;
  std::uint64_t batch_kv_budget = 0;
  bool batch_preempt = false;
  /// Paged KV eviction on preemption (cold blocks swap to a modeled host
  /// tier, refetch charged at resume); requires --preempt and --kv-budget.
  KvEvictPolicy batch_kv_evict = KvEvictPolicy::kNone;
  /// KV block size in bytes (0 = the line-granule default) and the
  /// refetch price in cycles per block (0 = the modeled host-link default).
  std::uint64_t batch_kv_block_bytes = 0;
  std::uint64_t batch_refetch_cost = 0;
  /// Cross-request KV prefix sharing (scenario/kv_block_pool.hpp): requests
  /// in the same --prefix-groups group pin their common prefix blocks once.
  bool batch_kv_share = false;
  /// Per-request prefix-group ids and shared-prefix token counts (size 1
  /// broadcasts; a 0 token entry keeps that request fully private). Both
  /// require --kv-share=on and each other.
  std::vector<std::uint64_t> batch_prefix_groups;
  std::vector<std::uint64_t> batch_prefix_tokens;
  /// Open-loop workload generation (scenario/traffic.hpp): --traffic=P
  /// replaces the hand-built request list with a generated one
  /// (--requests supplies the count). The remaining knobs mirror
  /// TrafficConfig; the option layer stores them raw so it does not depend
  /// on the scenario layer.
  bool traffic = false;
  TrafficProcess traffic_process = TrafficProcess::kPoisson;
  std::uint64_t traffic_seed = 1;
  std::uint64_t traffic_gap = 20'000;
  TrafficDist traffic_seq_dist = TrafficDist::kUniform;
  std::uint64_t traffic_seq_min = 64;
  std::uint64_t traffic_seq_max = 512;
  double traffic_sigma = 0.5;
  std::uint32_t traffic_steps_min = 1;
  std::uint32_t traffic_steps_max = 4;
  std::uint32_t traffic_groups = 0;
  double traffic_zipf = 1.0;
  std::uint32_t traffic_share_pct = 75;
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
