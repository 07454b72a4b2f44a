// Golden-stats regression: every (ThrottlePolicy x ArbPolicy) combination
// runs a test_smoke-sized Logit workload, a two-request co-scheduled
// decode wave (one fused System, requests sharing the LLC), and a
// two-request continuous (streaming) pass with skewed sequence lengths,
// and the key counters are pinned against checked-in golden values. The
// simulator is integer-timed with its own portable RNG, so these are exact
// across platforms.
//
// Regenerating after an intentional behavior change:
//   LLAMCAT_GOLDEN_REGEN=../tests/golden_stats.inc ./test_golden_stats
// (path is relative to the working directory; from the repo root use
//  LLAMCAT_GOLDEN_REGEN=tests/golden_stats.inc ./build/test_golden_stats)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"
#include "sim/experiment.hpp"

namespace llamcat {
namespace {

struct GoldenRow {
  const char* name;
  std::uint64_t cycles;
  std::uint64_t dram_reads;
  std::uint64_t thread_blocks;
};

constexpr GoldenRow kGolden[] = {
#include "golden_stats.inc"
};

SimConfig small_config() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 5'000'000;
  return cfg;
}

ModelShape tiny_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

struct MeasuredRow {
  std::string name;
  std::uint64_t cycles;
  std::uint64_t dram_reads;
  std::uint64_t thread_blocks;
};

std::vector<MeasuredRow> measure_all_policy_pairs() {
  const SimConfig base = small_config();
  const Workload wl = Workload::logit(tiny_model(), 128, base);
  std::vector<MeasuredRow> rows;
  const auto all_throttles = {ThrottlePolicy::kNone, ThrottlePolicy::kDyncta,
                              ThrottlePolicy::kLcs, ThrottlePolicy::kDynMg};
  const auto all_arbs = {ArbPolicy::kFcfs, ArbPolicy::kBalanced,
                         ArbPolicy::kMa, ArbPolicy::kBma, ArbPolicy::kCobrra,
                         ArbPolicy::kMrpb, ArbPolicy::kOracle,
                         ArbPolicy::kRandom};
  for (ThrottlePolicy thr : all_throttles) {
    for (ArbPolicy arb : all_arbs) {
      const SimConfig cfg = with_policies(base, thr, arb);
      const SimStats s = run_simulation(cfg, wl);
      rows.push_back({to_string(thr) + "/" + to_string(arb), s.cycles,
                      s.dram_reads, s.thread_blocks});
    }
  }
  // Co-scheduled rows: two requests fused into one shared System per wave
  // (one Logit + one Attend wave), pinning the cross-request contention
  // path per policy pair.
  const scenario::RequestBatch batch =
      scenario::RequestBatch::uniform(tiny_model(), 2, 128);
  scenario::DecodePassConfig pass_cfg;
  pass_cfg.num_layers = 1;
  pass_cfg.include_gemv = false;
  pass_cfg.mode = scenario::ExecutionMode::kCoScheduled;
  for (ThrottlePolicy thr : all_throttles) {
    for (ArbPolicy arb : all_arbs) {
      const SimConfig cfg = with_policies(base, thr, arb);
      const scenario::BatchStats s =
          scenario::DecodePass(batch, pass_cfg, cfg).run();
      rows.push_back({"co/" + to_string(thr) + "/" + to_string(arb),
                      s.total.cycles, s.total.dram_reads,
                      s.total.thread_blocks});
    }
  }
  // Continuous rows: a skewed two-request batch through the streaming
  // engine, pinning the mid-flight stage-handoff path per policy pair (the
  // `cycles` column is the stream makespan here).
  const scenario::RequestBatch skewed =
      scenario::RequestBatch::with_seq_lens(tiny_model(), {256, 128});
  scenario::DecodePassConfig ct_cfg;
  ct_cfg.num_layers = 1;
  ct_cfg.include_gemv = false;
  ct_cfg.mode = scenario::ExecutionMode::kContinuous;
  for (ThrottlePolicy thr : all_throttles) {
    for (ArbPolicy arb : all_arbs) {
      const SimConfig cfg = with_policies(base, thr, arb);
      const scenario::BatchStats s =
          scenario::DecodePass(skewed, ct_cfg, cfg).run();
      rows.push_back({"ct/" + to_string(thr) + "/" + to_string(arb),
                      s.makespan, s.total.dram_reads,
                      s.total.thread_blocks});
    }
  }
  // Serving-policy rows: a staggered, skewed, multi-step batch under (a) a
  // finite KV budget with FCFS admission and (b) the same budget with
  // shortest-remaining-first admission plus preemption, pinning the
  // queue/preempt state machine (and the step-aware peak-footprint
  // accounting the budget gates on) for the headline policy pairs. The
  // budget fits request 0 plus request 2's multi-step peak, but never
  // requests 0 and 1 together. `cycles` is the stream makespan.
  const scenario::RequestBatch staggered(
      tiny_model(), {{0, 256, 0, 1}, {1, 128, 1000, 1}, {2, 64, 3000, 2}});
  scenario::DecodePassConfig sv_cfg;
  sv_cfg.num_layers = 1;
  sv_cfg.include_gemv = false;
  sv_cfg.mode = scenario::ExecutionMode::kContinuous;
  sv_cfg.serving.kv_budget_bytes =
      (256 + 96) * staggered.kv_bytes_per_token();
  const std::pair<ThrottlePolicy, ArbPolicy> headline_pairs[] = {
      {ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {ThrottlePolicy::kNone, ArbPolicy::kBma},
      {ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  const std::pair<AdmitPolicy, bool> serving_variants[] = {
      {AdmitPolicy::kFcfs, false},
      {AdmitPolicy::kShortestRemaining, true},
  };
  for (const auto& [thr, arb] : headline_pairs) {
    for (const auto& [admit, preempt] : serving_variants) {
      sv_cfg.serving.policy = admit;
      sv_cfg.serving.preempt = preempt;
      const SimConfig cfg = with_policies(base, thr, arb);
      const scenario::BatchStats s =
          scenario::DecodePass(staggered, sv_cfg, cfg).run();
      rows.push_back({"sv/" + to_string(admit) + (preempt ? "+pre/" : "/") +
                          to_string(thr) + "/" + to_string(arb),
                      s.makespan, s.total.dram_reads,
                      s.total.thread_blocks});
    }
  }
  // Paged-eviction rows: a long request whose peak is the whole budget plus
  // two budget-blocked short arrivals, under kv_evict=cold-blocks. The
  // blocked shorts trigger a stage-boundary eviction of the long request
  // (swap-based admission), and the long resumes through a refetch - so
  // these rows pin the evict/refetch path (block-pool bookkeeping, the
  // queued-yield admission gate, the refetch hold) per headline policy
  // pair and queue discipline. `cycles` is the stream makespan, which
  // includes the refetch transfer.
  const scenario::RequestBatch paged(
      tiny_model(), {{0, 512, 0, 1}, {1, 64, 1000, 1}, {2, 64, 3000, 1}});
  scenario::DecodePassConfig pg_cfg;
  pg_cfg.num_layers = 1;
  pg_cfg.include_gemv = false;
  pg_cfg.mode = scenario::ExecutionMode::kContinuous;
  pg_cfg.serving.kv_budget_bytes = 512 * paged.kv_bytes_per_token();
  pg_cfg.serving.preempt = true;
  pg_cfg.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  for (const auto& [thr, arb] : headline_pairs) {
    for (const AdmitPolicy admit :
         {AdmitPolicy::kFcfs, AdmitPolicy::kShortestRemaining}) {
      pg_cfg.serving.policy = admit;
      const SimConfig cfg = with_policies(base, thr, arb);
      const scenario::BatchStats s =
          scenario::DecodePass(paged, pg_cfg, cfg).run();
      rows.push_back({"pg/" + to_string(admit) + "+cold/" + to_string(thr) +
                          "/" + to_string(arb),
                      s.makespan, s.total.dram_reads,
                      s.total.thread_blocks});
    }
  }
  // Open-loop rows: a seeded Poisson workload from the traffic generator
  // (scenario/traffic.hpp) through the streaming engine per headline policy
  // pair, pinning the generator's draws (arrival clock, seq/steps samples)
  // and the engine's handling of generated mid-flight arrivals in one row.
  // Any unintended change to the sampler or the arrival bookkeeping moves
  // these without touching the hand-built rows above.
  scenario::TrafficConfig ol_traffic;
  ol_traffic.num_requests = 4;
  ol_traffic.seed = 3;
  ol_traffic.mean_gap = 10'000;
  ol_traffic.seq_min = 32;
  ol_traffic.seq_max = 160;
  ol_traffic.steps_min = 1;
  ol_traffic.steps_max = 3;
  const scenario::RequestBatch open_loop(
      tiny_model(), scenario::generate_traffic(ol_traffic));
  scenario::DecodePassConfig ol_cfg;
  ol_cfg.num_layers = 1;
  ol_cfg.include_gemv = false;
  ol_cfg.mode = scenario::ExecutionMode::kContinuous;
  for (const auto& [thr, arb] : headline_pairs) {
    const SimConfig cfg = with_policies(base, thr, arb);
    const scenario::BatchStats s =
        scenario::DecodePass(open_loop, ol_cfg, cfg).run();
    rows.push_back({"ol/poisson/" + to_string(thr) + "/" + to_string(arb),
                    s.makespan, s.total.dram_reads, s.total.thread_blocks});
  }
  return rows;
}

TEST(GoldenStats, AllPolicyPairsMatchCheckedInValues) {
  const std::vector<MeasuredRow> rows = measure_all_policy_pairs();

  if (const char* regen = std::getenv("LLAMCAT_GOLDEN_REGEN");
      regen != nullptr && *regen != '\0') {
    std::ofstream out(regen);
    ASSERT_TRUE(out) << "cannot open " << regen;
    out << "// Generated by test_golden_stats with LLAMCAT_GOLDEN_REGEN; do\n"
           "// not edit by hand. {name, cycles, dram_reads, thread_blocks}.\n"
           "// clang-format off\n";
    for (const MeasuredRow& r : rows) {
      out << "{\"" << r.name << "\", " << r.cycles << "ull, " << r.dram_reads
          << "ull, " << r.thread_blocks << "ull},\n";
    }
    out << "// clang-format on\n";
    GTEST_SKIP() << "regenerated golden values into " << regen
                 << "; rebuild and rerun to verify";
  }

  ASSERT_EQ(rows.size(), std::size(kGolden));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, kGolden[i].name);
    EXPECT_EQ(rows[i].cycles, kGolden[i].cycles) << rows[i].name;
    EXPECT_EQ(rows[i].dram_reads, kGolden[i].dram_reads) << rows[i].name;
    EXPECT_EQ(rows[i].thread_blocks, kGolden[i].thread_blocks)
        << rows[i].name;
  }
}

}  // namespace
}  // namespace llamcat
