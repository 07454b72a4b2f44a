// Self-benchmark of the simulator itself: wall-clock speed (not simulated
// performance) over a fixed matrix of representative scenarios - the first
// point of the BENCH perf trajectory. Future perf PRs are judged against
// the committed BENCH_selfperf.json baseline (tools/check_selfperf.sh is
// the soft CI gate); correctness PRs that change simulated cycle counts
// regenerate the baseline alongside.
//
//   bench_selfperf --json=BENCH_selfperf.json
//
// Per scenario: simulated cycles (deterministic - a change means engine
// behavior changed, not just speed), best-of-N wall ms, simulated
// Mcycles/s of wall time, and the process peak RSS after the run.
// --scale=quick drops to one repetition per scenario for CI.
//
// Methodology (docs/testing.md "Self-benchmark"): every run is
// single-threaded (run(1)) so the metric is raw engine speed, not host
// parallelism; best-of-N absorbs scheduler noise; RSS is process-wide and
// monotone, so rows report the high-water mark up to and including that
// scenario.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace llamcat;
using namespace llamcat::bench;
using scenario::AdmitPolicy;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::RequestBatch;
using scenario::RequestSpec;

namespace {

SimConfig bench_machine() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 200'000'000;
  return cfg;
}

ModelShape bench_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

// bench_model: H=2, D=128, fp16 -> 512 bytes per resident KV token/layer.
constexpr std::uint64_t kBytesPerToken = 2ull * 128 * 2;

struct Scenario {
  std::string name;
  std::vector<RequestSpec> requests;
  void (*configure)(DecodePassConfig&);
};

/// A 1000-request open-loop Poisson stream past the knee: the
/// serve_openloop shape (lognormal lengths, 1-2 decode steps, four Zipf
/// prefix groups) with shorter gaps and sequences, so the row runs in
/// seconds while the request count is large enough to show any per-cycle
/// cost that grows with it.
std::vector<RequestSpec> openloop_1k() {
  scenario::TrafficConfig t;
  t.num_requests = 1000;
  t.process = TrafficProcess::kPoisson;
  t.mean_gap = 6000;
  t.seq_dist = TrafficDist::kLognormal;
  t.seq_min = 32;
  t.seq_max = 64;
  t.steps_min = 1;
  t.steps_max = 2;
  t.prefix_groups = 4;
  return scenario::generate_traffic(t);
}

std::vector<Scenario> matrix() {
  return {
    // The per-wave barrier engine: fused Systems, address attribution.
    {"barrier_coscheduled",
     {{0, 512, 0, 1}, {1, 256, 0, 1}, {2, 128, 0, 1}, {3, 128, 0, 1}},
     [](DecodePassConfig& pc) { pc.mode = ExecutionMode::kCoScheduled; }},
    // Isolated per-operator runs (run_experiments at run(1), which keeps
    // every run in the caller's thread so the row measures engine speed,
    // not host cores).
    {"independent",
     {{0, 512, 0, 1}, {1, 256, 0, 1}, {2, 128, 0, 1}, {3, 128, 0, 1}},
     [](DecodePassConfig& pc) { pc.mode = ExecutionMode::kIndependent; }},
    // The raw streaming engine: one long-lived System, mid-pass admission.
    {"continuous_stream",
     {{0, 512, 0, 1}, {1, 64, 500, 2}, {2, 128, 0, 1}},
     [](DecodePassConfig& pc) { pc.mode = ExecutionMode::kContinuous; }},
    // Serving-policy layer: SRF admission against a tight budget plus
    // stage-boundary preemption (queue churn, resident KV intact).
    {"continuous_budget_preempt",
     {{0, 512, 0, 2}, {1, 128, 1000, 1}, {2, 64, 3000, 1}, {3, 128, 5000, 1}},
     [](DecodePassConfig& pc) {
       pc.mode = ExecutionMode::kContinuous;
       pc.serving.policy = AdmitPolicy::kShortestRemaining;
       pc.serving.kv_budget_bytes = 700 * kBytesPerToken * 2;
       pc.serving.preempt = true;
     }},
    // Paged KV: cold-block eviction + refetch pricing on top of the above.
    {"continuous_paged",
     {{0, 512, 0, 2}, {1, 64, 1000, 1}, {2, 64, 3000, 1}, {3, 128, 5000, 1}},
     [](DecodePassConfig& pc) {
       pc.mode = ExecutionMode::kContinuous;
       pc.serving.policy = AdmitPolicy::kShortestRemaining;
       pc.serving.kv_budget_bytes = 544 * kBytesPerToken * 2;
       pc.serving.preempt = true;
       pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
       pc.serving.kv_block_bytes = 256;
     }},
    // Prefix-heavy sharing: three requests decode from one 256-token system
    // prompt under a tight paged budget, so admission, eviction and refetch
    // all route through the ref-counted shared block pool (the hot path the
    // kv_block_pool shard table serves).
    {"continuous_prefix_shared",
     {{0, 512, 0, 2, 0, 256},
      {1, 512, 1000, 1, 0, 256},
      {2, 512, 3000, 1, 0, 256},
      {3, 128, 5000, 1}},
     [](DecodePassConfig& pc) {
       pc.mode = ExecutionMode::kContinuous;
       pc.serving.policy = AdmitPolicy::kShortestRemaining;
       pc.serving.kv_budget_bytes = 700 * kBytesPerToken * 2;
       pc.serving.preempt = true;
       pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
       pc.serving.kv_block_bytes = 256;
       pc.serving.kv_share = true;
     }},
    // Open-loop serving at scale: SRF against a KV budget, preemption and
    // prefix sharing over 1000 generated requests.
    {"continuous_openloop_1k", openloop_1k(),
     [](DecodePassConfig& pc) {
       pc.num_layers = 1;
       pc.mode = ExecutionMode::kContinuous;
       pc.serving.policy = AdmitPolicy::kShortestRemaining;
       pc.serving.kv_budget_bytes = 256 * kBytesPerToken;
       pc.serving.preempt = true;
       pc.serving.kv_share = true;
     }},
  };
}

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // bytes there
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("bench_selfperf: simulator wall-clock speed (BENCH trajectory)",
               args.scale);
  const int reps = args.quick() ? 1 : 3;
  std::cout << "reps per scenario: " << reps << "\n\n";

  TextTable table("simulator speed per scenario");
  table.set_header(
      {"scenario", "sim cycles", "best wall ms", "Mcyc/s", "peak RSS MB"});
  for (const Scenario& sc : matrix()) {
    DecodePassConfig pc;
    pc.num_layers = 2;
    pc.include_gemv = false;
    sc.configure(pc);
    const RequestBatch batch(bench_model(), sc.requests);
    const DecodePass pass(batch, pc, bench_machine());

    std::uint64_t sim_cycles = 0;
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      // lint:allow(wallclock): measuring host simulation throughput is this bench's purpose
      const auto t0 = std::chrono::steady_clock::now();
      const BatchStats stats = pass.run(/*threads=*/1);
      const std::chrono::duration<double, std::milli> dt =
          // lint:allow(wallclock): measuring host simulation throughput is this bench's purpose
          std::chrono::steady_clock::now() - t0;
      sim_cycles = stats.total.cycles;  // identical every rep (deterministic)
      if (r == 0 || dt.count() < best_ms) best_ms = dt.count();
    }
    const double mcyc_per_sec =
        best_ms > 0.0 ? static_cast<double>(sim_cycles) / (best_ms * 1e3)
                      : 0.0;
    const std::uint64_t rss_kb = peak_rss_kb();

    table.add_row({sc.name, std::to_string(sim_cycles),
                   TextTable::num(best_ms, 1), TextTable::num(mcyc_per_sec, 2),
                   TextTable::num(static_cast<double>(rss_kb) / 1024.0, 1)});
    json.begin_row()
        .field("scenario", sc.name)
        .field("sim_cycles", sim_cycles)
        .field("wall_ms", best_ms)
        .field("mcycles_per_sec", mcyc_per_sec)
        .field("peak_rss_kb", rss_kb)
        .field("reps", static_cast<std::uint64_t>(reps));
  }
  table.print(std::cout);
  std::cout << "\nsim cycles are deterministic: a diff there means engine\n"
               "behavior changed (regenerate the baseline); wall ms and\n"
               "Mcyc/s are what perf PRs move.\n";
  return json.write_if_requested() ? 0 : 1;
}
