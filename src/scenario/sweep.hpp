// Saturation sweep driver: drives the open-loop traffic generator
// (scenario/traffic.hpp) through run_continuous at a ladder of offered
// loads and reduces each run to one throughput/latency point, so a bench
// (bench/ablation_saturation.cpp) or test can trace the serving curve of a
// policy stack from an idle machine to past its saturation knee.
//
// Methodology (docs/workloads.md has the prose version): the offered-load
// axis is the mean inter-arrival gap - identical workload shape and seed at
// every point, only the arrival clock compresses - so two points differ by
// load alone, and two policy stacks at the same point differ by policy
// alone. Each point reports end-to-end latency, the split TTFT/TBT
// percentiles, SLO-goodput (tokens of requests whose TTFT met the SLO, per
// second) and the preemption/queue totals. Max-sustainable load is the
// largest offered rate whose P99 TTFT still meets the SLO.
//
// Every point is an independent single-threaded simulation run in axis
// order in the caller's thread; a bench that charts several curves fans
// the curves out with parallel_map (common/parallel_map.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"

namespace llamcat::scenario {

/// One load ladder: the workload shape (`traffic`, whose mean_gap is
/// overridden point by point), the gap axis, and the TTFT SLO that defines
/// goodput.
struct SweepConfig {
  /// Workload shape shared by every point (num_requests, distributions,
  /// prefix mix, seed). mean_gap is ignored - `gaps` supplies it.
  TrafficConfig traffic;
  /// Offered-load axis: one sweep point per mean inter-arrival gap, run in
  /// the given order (descending gap = rising load toward saturation).
  std::vector<Cycle> gaps;
  /// TTFT SLO in stream cycles: a request attains it iff
  /// arrival -> first dispatch <= this.
  Cycle slo_ttft_cycles = 0;

  /// Throws std::invalid_argument on an empty axis, a zero gap or SLO, or
  /// an invalid workload shape.
  void validate() const;
};

/// One point of the curve: the run's reductions at a single offered load.
struct SweepPoint {
  Cycle mean_gap = 0;
  /// Offered load in requests/s (core_hz / mean_gap).
  double offered_qps = 0.0;
  /// Delivered tokens/s over the makespan.
  double throughput_tps = 0.0;
  /// Tokens/s of SLO-attained requests only.
  double goodput_tps = 0.0;
  Cycle makespan = 0;
  Cycle p50_latency = 0;
  Cycle p99_latency = 0;
  Cycle p50_ttft = 0;
  Cycle p99_ttft = 0;
  Cycle p50_tbt = 0;
  Cycle p99_tbt = 0;
  SloReport slo;
  std::uint64_t preemptions = 0;
  Cycle queue_wait = 0;
};

/// Runs the ladder: for each gap, generates the workload, executes one
/// continuous pass under `pass_cfg` on `cfg`, audits it against the
/// open-loop contract (throwing InvariantViolation on a breach - a sweep
/// must never chart a run that broke the contract), and reduces it to a
/// SweepPoint. Points are returned in gap order.
[[nodiscard]] std::vector<SweepPoint> run_load_sweep(
    const ModelShape& model, const SimConfig& cfg,
    const DecodePassConfig& pass_cfg, const SweepConfig& sweep);

/// Index of the highest sustainable load: the smallest gap (densest
/// arrivals) whose P99 TTFT still meets `slo_ttft_cycles`. Returns
/// points.size() when no point sustains it.
[[nodiscard]] std::size_t max_sustainable_index(
    const std::vector<SweepPoint>& points, Cycle slo_ttft_cycles);

}  // namespace llamcat::scenario
