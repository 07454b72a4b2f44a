// Experiment harness: named (config, workload) pairs run in parallel worker
// threads (each simulation itself stays single-threaded + deterministic).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/sim_stats.hpp"
#include "trace/mapper.hpp"
#include "trace/mapping.hpp"
#include "trace/operator.hpp"

namespace llamcat {

/// A workload = operator + mapping. `auto_map` uses the built-in Mapper
/// (the analytical half of the hybrid framework).
struct Workload {
  OperatorSpec op;
  Mapping mapping;

  static Workload logit(const ModelShape& model, std::uint64_t seq_len,
                        const SimConfig& cfg);
  static Workload attend(const ModelShape& model, std::uint64_t seq_len,
                         const SimConfig& cfg);
  /// Memory-bound decode GEMV (FFN / LM-head tile): streams a rows x cols
  /// weight matrix with no GQA sharing (the paper's §6.3.3 counterpoint).
  static Workload gemv(std::uint64_t rows, std::uint32_t cols,
                       const SimConfig& cfg);
  static Workload with_mapping(OperatorSpec op, Mapping m);
  /// Auto-maps an arbitrary pre-built spec (e.g. one whose tensor bases were
  /// relocated for a specific request/layer slot) the same way the named
  /// constructors above do.
  static Workload from_spec(OperatorSpec op, const SimConfig& cfg);
};

/// Runs one simulation to completion.
SimStats run_simulation(const SimConfig& cfg, const Workload& wl);

struct ExperimentSpec {
  std::string name;
  SimConfig cfg;
  Workload workload;
};

struct ExperimentResult {
  std::string name;
  SimStats stats;
  double wall_seconds = 0.0;
};

/// Runs all specs through parallel_map, `threads`-wide (0 = hardware
/// concurrency, 1 = in the caller's thread). Results keep the input order;
/// `verbose` writes one `[exp]` line per run as it finishes (completion
/// order when more than one run is in flight).
std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentSpec> specs, std::size_t threads = 0,
    bool verbose = false);

/// Convenience: applies arbitration/throttling policy selections to a copy
/// of `base` (used by every bench binary).
SimConfig with_policies(const SimConfig& base, ThrottlePolicy thr,
                        ArbPolicy arb,
                        std::optional<RespArbPolicy> resp_arb = std::nullopt);

/// The decode attention step for one token: Logit (Q.K^T) followed by
/// Attend (S.V). The softmax between them is elementwise on S and is not
/// memory-system-bound, so it is folded into Attend's compute cycles.
std::vector<Workload> decode_attention_step(const ModelShape& model,
                                            std::uint64_t seq_len,
                                            const SimConfig& cfg);

}  // namespace llamcat
