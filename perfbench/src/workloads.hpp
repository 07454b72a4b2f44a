// The benchmark's workloads. Each drives the simulator only through public
// calls, split into the input build (timed as setup), the simulate calls
// (timed as run) and an untimed correctness check, and reduces its outputs
// to the catalog's metrics. BENCHMARK.md says why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// serve_openloop's traffic seed. It is pinned, not taken from --seed, so
/// the modeled metrics are identical on every run and host-time spreads
/// measure the host, not the schedule. Confirm a claim on the held-out
/// seed 5 as well (--traffic-seed 5).
inline constexpr std::uint64_t kDefaultTrafficSeed = 1;

/// Outcome of one rep's correctness check.
struct RepCheck {
  /// Operations checked: operator runs (logit) or simulated requests
  /// (serving).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// batch_stats_digest of every output of the rep: identical across reps
  /// of one invocation, or the run is not deterministic.
  std::string digest;
};

using Values = std::map<std::string, double>;

class BenchWorkload {
 public:
  BenchWorkload() = default;
  virtual ~BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;

  /// The untimed rep before the timed ones, so caches, allocator and
  /// page tables are warm. Returns its check; its digest is not compared
  /// with the timed reps'. The default is one ordinary rep.
  [[nodiscard]] virtual RepCheck warm_up(Tracer& tracer);
  /// Drops the previous rep's inputs, so setup() times building alone.
  virtual void release() = 0;
  /// Builds every input of one rep. Requires release() first.
  virtual void setup(Tracer& tracer) = 0;
  /// The simulate calls over the inputs setup() built; returns the host
  /// time of each call, always in the same order.
  [[nodiscard]] virtual std::vector<HostTime> run(Tracer& tracer) = 0;
  /// Checks the outputs of the last run().
  [[nodiscard]] virtual RepCheck check(Tracer& tracer) = 0;
  /// Traced runs only, after each traced rep: spans public calls that the
  /// rep reaches only from inside the program, by calling them again
  /// outside the rep, so the extra work stays out of the rep's time. The
  /// default records nothing.
  virtual void traced_extras(Tracer& tracer) { (void)tracer; }
  /// Modeled end-to-end metrics of the last run (exact).
  virtual void modeled_metrics(Values& out) const = 0;
  /// Per-layer machine and serving counters of the last run.
  virtual void layer_counters(Values& out) const = 0;
  /// Simulated kcycles all run() calls of one rep advance in total.
  [[nodiscard]] virtual double simulated_kcycles() const = 0;
};

/// `seed` seeds the simulated machine (SimConfig::seed); throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<BenchWorkload> make_workload(
    std::string_view name, std::uint64_t seed, std::uint64_t traffic_seed);

}  // namespace perfbench
