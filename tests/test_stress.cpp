// Stress and failure-injection tests: starved resources (1-entry MSHRs,
// 1-deep queues, single slice/core), randomized configuration fuzzing, and
// per-cycle structural invariants. Every configuration must run to
// completion with the conservation laws intact - the stall machinery is
// allowed to be slow, never wrong.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {
namespace {

ModelShape tiny_model(std::uint32_t h = 2, std::uint32_t g = 2) {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = h;
  m.group_size = g;
  return m;
}

SimConfig tiny_cfg() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 2;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 50'000'000;
  return cfg;
}

void expect_conservation(const SimStats& s) {
  const auto& c = s.counters;
  EXPECT_EQ(c.get("llc.requests_in"), c.get("llc.requests_served"));
  EXPECT_EQ(c.get("llc.hits") + c.get("llc.misses"), c.get("llc.lookups"));
  EXPECT_EQ(c.get("llc.mshr_hits") + c.get("llc.mshr_allocs"),
            c.get("llc.misses"));
  EXPECT_EQ(c.get("llc.mshr_allocs"), c.get("dram.reads"));
  EXPECT_EQ(c.get("llc.fills"), c.get("dram.reads"));
}

// ------------------------------------------------- starved resources ------

struct StarveCase {
  std::string name;
  void (*apply)(SimConfig&);
};

class StarvedResources : public ::testing::TestWithParam<StarveCase> {};

TEST_P(StarvedResources, CompletesAndConserves) {
  SimConfig cfg = tiny_cfg();
  GetParam().apply(cfg);
  cfg.validate();
  const Workload wl = Workload::logit(tiny_model(), 256, cfg);
  const SimStats s = run_simulation(cfg, wl);
  EXPECT_GT(s.cycles, 0u);
  expect_conservation(s);
}

TEST_P(StarvedResources, DeterministicUnderStarvation) {
  SimConfig cfg = tiny_cfg();
  GetParam().apply(cfg);
  const Workload wl = Workload::logit(tiny_model(), 128, cfg);
  EXPECT_EQ(run_simulation(cfg, wl).cycles, run_simulation(cfg, wl).cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StarvedResources,
    ::testing::Values(
        StarveCase{"one_mshr_entry",
                   [](SimConfig& c) { c.llc.mshr_entries = 1; }},
        StarveCase{"one_mshr_target",
                   [](SimConfig& c) { c.llc.mshr_targets = 1; }},
        StarveCase{"one_entry_one_target",
                   [](SimConfig& c) {
                     c.llc.mshr_entries = 1;
                     c.llc.mshr_targets = 1;
                   }},
        StarveCase{"one_deep_request_queue",
                   [](SimConfig& c) { c.llc.req_q_size = 1; }},
        StarveCase{"one_deep_response_queue",
                   [](SimConfig& c) { c.llc.resp_q_size = 1; }},
        StarveCase{"single_slice",
                   [](SimConfig& c) { c.llc.num_slices = 1; }},
        StarveCase{"single_core",
                   [](SimConfig& c) { c.core.num_cores = 1; }},
        StarveCase{"single_window",
                   [](SimConfig& c) { c.core.num_inst_windows = 1; }},
        StarveCase{"shallow_windows",
                   [](SimConfig& c) { c.core.inst_window_depth = 2; }},
        StarveCase{"tiny_dram_queues",
                   [](SimConfig& c) {
                     c.dram.read_q_size = 1;
                     c.dram.write_q_size = 1;
                   }},
        StarveCase{"one_channel_one_rank",
                   [](SimConfig& c) {
                     c.dram.num_channels = 1;
                     c.dram.ranks_per_channel = 1;
                   }},
        StarveCase{"everything_starved",
                   [](SimConfig& c) {
                     c.llc.mshr_entries = 1;
                     c.llc.mshr_targets = 1;
                     c.llc.req_q_size = 1;
                     c.llc.resp_q_size = 1;
                     c.llc.num_slices = 1;
                     c.core.num_cores = 1;
                     c.core.num_inst_windows = 1;
                   }}),
    [](const ::testing::TestParamInfo<StarveCase>& info) {
      return info.param.name;
    });

TEST(StarvedResources, OneEntryMshrActuallyStalls) {
  SimConfig cfg = tiny_cfg();
  cfg.llc.mshr_entries = 1;
  const Workload wl = Workload::logit(tiny_model(), 512, cfg);
  const SimStats s = run_simulation(cfg, wl);
  EXPECT_GT(s.counters.get("llc.stall_entry"), 0u)
      << "a 1-entry MSHR must hit numEntry exhaustion on this workload";
  EXPECT_GT(s.t_cs, 0.0);
}

TEST(StarvedResources, StarvationOnlyCostsTime) {
  SimConfig rich = tiny_cfg();
  SimConfig poor = tiny_cfg();
  poor.llc.mshr_entries = 1;
  poor.llc.req_q_size = 1;
  const Workload wl = Workload::logit(tiny_model(), 256, rich);
  const SimStats a = run_simulation(rich, wl);
  const SimStats b = run_simulation(poor, wl);
  EXPECT_GT(b.cycles, a.cycles);
  // Identical work retired either way.
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.thread_blocks, b.thread_blocks);
}

// ------------------------------------------------------ config fuzzing ----

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, RandomMachinesCompleteAndConserve) {
  Xoshiro256 rng(GetParam());
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 1u << rng.below(4);            // 1..8
  cfg.core.num_inst_windows = 1 + static_cast<std::uint32_t>(rng.below(4));
  cfg.core.inst_window_depth = 4u << rng.below(4);    // 4..32
  cfg.llc.size_bytes = (1ull << 20) << rng.below(2);  // 1..2 MB
  cfg.llc.num_slices = 1u << rng.below(3);            // 1..4
  cfg.llc.mshr_entries = 1 + static_cast<std::uint32_t>(rng.below(8));
  cfg.llc.mshr_targets = 1 + static_cast<std::uint32_t>(rng.below(8));
  cfg.llc.req_q_size = 1 + static_cast<std::uint32_t>(rng.below(12));
  cfg.llc.resp_q_size = 2 + static_cast<std::uint32_t>(rng.below(32));
  cfg.llc.repl = static_cast<ReplPolicy>(rng.below(5));
  cfg.llc.insert = static_cast<InsertPolicy>(rng.below(2));
  cfg.arb.policy = static_cast<ArbPolicy>(rng.below(8));
  cfg.arb.hit_buffer_depth = static_cast<std::uint32_t>(rng.below(64));
  cfg.arb.sent_reqs_depth = static_cast<std::uint32_t>(rng.below(32));
  // validate() rejects a depth in [1, lifetime): raise such a draw to the
  // lifetime, which keeps every other draw of the seed unchanged.
  const std::uint32_t lifetime = cfg.llc.hit_latency + cfg.llc.mshr_latency;
  if (cfg.arb.sent_reqs_depth != 0 && cfg.arb.sent_reqs_depth < lifetime) {
    cfg.arb.sent_reqs_depth = lifetime;
  }
  cfg.throttle.policy = static_cast<ThrottlePolicy>(rng.below(4));
  cfg.core.tb_dispatch = static_cast<TbDispatch>(rng.below(3));
  cfg.llc.bypass.policy = static_cast<BypassPolicy>(rng.below(4));
  cfg.dram.num_channels = 1u << rng.below(2);
  cfg.seed = rng();
  cfg.max_cycles = 100'000'000;
  ASSERT_NO_THROW(cfg.validate());

  const std::uint64_t L = 64u << rng.below(3);  // 64..256
  const Workload wl = Workload::logit(
      tiny_model(1 + static_cast<std::uint32_t>(rng.below(2)),
                 1u << rng.below(3)),
      L, cfg);
  const SimStats s = run_simulation(cfg, wl);
  EXPECT_GT(s.cycles, 0u);
  expect_conservation(s);
  EXPECT_EQ(s.thread_blocks, wl.mapping.num_thread_blocks(wl.op));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// -------------------------------------------------- per-cycle invariants --

TEST(StructuralInvariants, QueuesAndMshrStayBounded) {
  SimConfig cfg = tiny_cfg();
  cfg.llc.mshr_entries = 2;
  cfg.llc.req_q_size = 4;
  cfg.llc.resp_q_size = 4;
  const Workload wl = Workload::logit(tiny_model(), 256, cfg);
  TraceGen gen(wl.op, wl.mapping);
  System sys(cfg, gen);
  while (!sys.done()) {
    sys.step();
    for (const auto& slice : sys.slices()) {
      ASSERT_LE(slice->req_q_size(), cfg.llc.req_q_size);
      ASSERT_LE(slice->resp_q_size(), cfg.llc.resp_q_size);
      ASSERT_LE(slice->mshr().occupancy(), cfg.llc.mshr_entries);
      for (const auto& e : slice->mshr().entries()) {
        ASSERT_LE(e.targets.size(), cfg.llc.mshr_targets);
      }
    }
  }
}

TEST(StructuralInvariants, ProgressCountersMonotone) {
  SimConfig cfg = tiny_cfg();
  cfg.arb.policy = ArbPolicy::kBma;
  const Workload wl = Workload::logit(tiny_model(), 128, cfg);
  TraceGen gen(wl.op, wl.mapping);
  System sys(cfg, gen);
  std::vector<std::uint64_t> prev(cfg.core.num_cores, 0);
  while (!sys.done()) {
    sys.step();
    std::vector<std::uint64_t> cur(cfg.core.num_cores, 0);
    for (const auto& slice : sys.slices()) {
      const auto& p = slice->arbiter().progress();
      for (std::size_t i = 0; i < p.size(); ++i) cur[i] += p[i];
    }
    for (std::size_t i = 0; i < cur.size(); ++i) {
      ASSERT_GE(cur[i], prev[i]) << "progress counter moved backwards";
    }
    prev = std::move(cur);
  }
}

TEST(StructuralInvariants, AllSlicesDrainedAtCompletion) {
  SimConfig cfg = tiny_cfg();
  const Workload wl = Workload::logit(tiny_model(), 128, cfg);
  TraceGen gen(wl.op, wl.mapping);
  System sys(cfg, gen);
  while (!sys.done()) sys.step();
  for (const auto& slice : sys.slices()) {
    EXPECT_TRUE(slice->drained());
    EXPECT_EQ(slice->mshr().occupancy(), 0u);
  }
  for (const auto& core : sys.cores()) {
    EXPECT_TRUE(core->fully_idle());
  }
}

// ----------------------------------------------------- odd workloads ------

TEST(OddWorkloads, MinimumSequenceLength) {
  // 32 fp16 elements = exactly the 64B the mapping constraint requires in
  // the innermost L1 temporal level.
  const SimConfig cfg = tiny_cfg();
  const Workload wl = Workload::logit(tiny_model(), 32, cfg);
  const SimStats s = run_simulation(cfg, wl);
  expect_conservation(s);
  EXPECT_GT(s.thread_blocks, 0u);
}

TEST(OddWorkloads, Fp32ModelRuns) {
  ModelShape m = tiny_model();
  m.dtype_bytes = 4;
  const SimConfig cfg = tiny_cfg();
  const Workload wl = Workload::logit(m, 128, cfg);
  const SimStats s = run_simulation(cfg, wl);
  expect_conservation(s);
}

TEST(OddWorkloads, WideGroupNarrowHeads) {
  const SimConfig cfg = tiny_cfg();
  const Workload wl = Workload::logit(tiny_model(1, 32), 128, cfg);
  const SimStats s = run_simulation(cfg, wl);
  expect_conservation(s);
}

TEST(OddWorkloads, MoreCoresThanThreadBlocks) {
  SimConfig cfg = tiny_cfg();
  cfg.core.num_cores = 16;
  // C_idle/C_mem totals are throttling-support counters, only sampled when
  // a controller is active.
  cfg.throttle.policy = ThrottlePolicy::kDyncta;
  // 2 (h,g) pairs x 128/l_tile thread blocks: fewer than 16 cores, and the
  // run is long enough to cross a sampling sub-period so the surplus
  // cores' idleness reaches the merged counters.
  const Workload wl = Workload::logit(tiny_model(1, 2), 128, cfg);
  const SimStats s = run_simulation(cfg, wl);
  expect_conservation(s);
  ASSERT_LT(s.thread_blocks, 16u);
  EXPECT_GE(s.counters.get("core.c_idle_total"), 1u)
      << "surplus cores must report idle cycles";
}

}  // namespace
}  // namespace llamcat
