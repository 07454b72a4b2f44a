// Fast-path equivalence suite: the event-driven skip-ahead and the awake
// sets with lazy settlement (System fast path, on by default) must be an
// invisible optimization. Every execution mode, every arbitration x
// throttling policy pair and a slice of the pinned fuzz corpus run once
// with the fast path enabled and once with SimConfig::fast_path off, and
// the two runs are compared through a canonical digest - byte-identity,
// not approximate equality. A last suite pins the parallel sweep contract:
// llamcat_stress-style sweeps give bit-identical results for any --jobs
// count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace llamcat {
namespace {

using scenario::AdmitPolicy;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::FuzzResult;
using scenario::RequestBatch;
using scenario::RequestSpec;

/// Scoped environment knob. System reads LLAMCAT_FASTPATH_STATS at run(),
/// so setting it around a DecodePass run applies it to every System that
/// run creates.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    ::setenv(name_, "1", 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

SimConfig small_config() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 20'000'000;
  return cfg;
}

ModelShape tiny_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

// tiny_model: H=2, D=128, fp16 -> 512 bytes per resident KV token per layer.
constexpr std::uint64_t kTinyBytesPerToken = 2ull * 128 * 2;

struct ModeCase {
  std::string name;
  std::vector<RequestSpec> requests;
  void (*configure)(DecodePassConfig&);
};

std::string run_digest(const ModeCase& mc, bool fast_path = true) {
  DecodePassConfig pc;
  pc.num_layers = 2;
  pc.include_gemv = false;
  mc.configure(pc);
  const RequestBatch batch(tiny_model(), mc.requests);
  SimConfig cfg = small_config();
  cfg.fast_path = fast_path;
  return scenario::batch_stats_digest(DecodePass(batch, pc, cfg).run());
}

class EveryModeFastpath : public ::testing::TestWithParam<ModeCase> {};

TEST_P(EveryModeFastpath, FastPathOffIsByteIdenticalToOn) {
  EXPECT_EQ(run_digest(GetParam()), run_digest(GetParam(), false));
}

const std::vector<RequestSpec> kBarrierBatch = {{0, 128, 0, 1}, {1, 256, 0, 2}};
const std::vector<RequestSpec> kStreamBatch = {
    {0, 256, 0, 1}, {1, 64, 500, 2}, {2, 128, 0, 1}};
const std::vector<RequestSpec> kServingBatch = {
    {0, 512, 0, 2}, {1, 128, 1000, 1}, {2, 64, 3000, 1}, {3, 128, 5000, 1}};

void configure_paged(DecodePassConfig& pc) {
  pc.mode = ExecutionMode::kContinuous;
  pc.serving.policy = AdmitPolicy::kShortestRemaining;
  pc.serving.kv_budget_bytes = 544 * kTinyBytesPerToken * 2;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryModeFastpath,
    ::testing::Values(
        ModeCase{"independent", kBarrierBatch,
                 [](DecodePassConfig& pc) {
                   pc.mode = ExecutionMode::kIndependent;
                 }},
        ModeCase{"coscheduled", kBarrierBatch,
                 [](DecodePassConfig& pc) {
                   pc.mode = ExecutionMode::kCoScheduled;
                 }},
        ModeCase{"continuous_raw", kStreamBatch,
                 [](DecodePassConfig& pc) {
                   pc.mode = ExecutionMode::kContinuous;
                 }},
        ModeCase{"continuous_budgeted_preempt", kServingBatch,
                 [](DecodePassConfig& pc) {
                   pc.mode = ExecutionMode::kContinuous;
                   pc.serving.policy = AdmitPolicy::kShortestRemaining;
                   pc.serving.kv_budget_bytes = 700 * kTinyBytesPerToken * 2;
                   pc.serving.preempt = true;
                 }},
        ModeCase{"continuous_paged", kServingBatch, configure_paged}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return info.param.name;
    });

// Every arbitration policy under every throttling controller, on a small
// Logit under static and wave dispatch. Between them the runs wake
// sleeping cores and slices through every cause: a fill, a store-buffer
// drain, a scheduler epoch change, a throttle resample that moves max_tb,
// and reaching next_event. The slice request queues are short and the
// store buffer holds one store, so NoC credits run out and cores sleep
// blocked on an undrained store.
using PolicyCase = std::tuple<ArbPolicy, ThrottlePolicy, TbDispatch>;

std::string logit_digest(const PolicyCase& pc, bool fast_path) {
  const auto [arb, throttle, dispatch] = pc;
  SimConfig cfg = with_policies(small_config(), throttle, arb);
  cfg.core.tb_dispatch = dispatch;
  cfg.core.store_buffer_size = 1;
  cfg.llc.req_q_size = 2;
  cfg.fast_path = fast_path;
  const Workload wl = Workload::logit(tiny_model(), 512, cfg);
  const SimStats s = run_simulation(cfg, wl);
  std::ostringstream os;
  write_json(os, "logit", s);  // every counter
  os << std::hexfloat << s.l2_hit_rate << ' ' << s.mshr_hit_rate << ' '
     << s.mshr_entry_util << ' ' << s.dram_bw_gbps << ' ' << s.t_cs << ' '
     << s.ipc;
  return os.str();
}

std::string policy_case_name(const ::testing::TestParamInfo<PolicyCase>& info) {
  return to_string(std::get<0>(info.param)) + "_" +
         to_string(std::get<1>(info.param)) + "_" +
         to_string(std::get<2>(info.param));
}

class EveryPolicyFastpath : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(EveryPolicyFastpath, FastPathOffIsByteIdenticalToOn) {
  EXPECT_EQ(logit_digest(GetParam(), true), logit_digest(GetParam(), false));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryPolicyFastpath,
    ::testing::Combine(
        ::testing::Values(ArbPolicy::kFcfs, ArbPolicy::kBalanced,
                          ArbPolicy::kMa, ArbPolicy::kBma, ArbPolicy::kCobrra,
                          ArbPolicy::kMrpb, ArbPolicy::kOracle,
                          ArbPolicy::kRandom),
        ::testing::Values(ThrottlePolicy::kNone, ThrottlePolicy::kDyncta,
                          ThrottlePolicy::kLcs, ThrottlePolicy::kDynMg),
        ::testing::Values(TbDispatch::kStaticBlocked,
                          TbDispatch::kPartitionedStealing)),
    policy_case_name);

/// Sums the "[fastpath] cycles=... stepped=... skipped=... windows=..."
/// stderr lines of every System that `run` creates.
struct FastpathTotals {
  unsigned long long cycles = 0, stepped = 0, windows = 0;
  std::size_t runs = 0;
};

template <typename Run>
FastpathTotals fastpath_totals(Run run) {
  std::string err;
  {
    ScopedEnv stats("LLAMCAT_FASTPATH_STATS");
    ::testing::internal::CaptureStderr();
    run();
    err = ::testing::internal::GetCapturedStderr();
  }
  FastpathTotals t;
  std::istringstream lines(err);
  for (std::string line; std::getline(lines, line);) {
    unsigned long long c = 0, s = 0, k = 0, w = 0;
    if (std::sscanf(line.c_str(),
                    "[fastpath] cycles=%llu stepped=%llu skipped=%llu "
                    "windows=%llu",
                    &c, &s, &k, &w) != 4) {
      continue;
    }
    t.cycles += c;
    t.stepped += s;
    t.windows += w;
    ++t.runs;
  }
  return t;
}

// The admission hook's wake hints decide which cycles System::run steps one
// by one and which it skips; perfbench's sim.stepped_frac reads the result
// from the "[fastpath] cycles=... stepped=..." stderr line. A hooked,
// paged pass (arrival and refetch landmarks, preemption) pins both totals
// as the hook that rescanned every request on every cycle produced them,
// so a change to the hook cannot move a skip window unnoticed.
TEST(HookedSkipWindows, SteppedCyclesArePinned) {
  const FastpathTotals t = fastpath_totals([] {
    (void)run_digest({"continuous_paged", kServingBatch, configure_paged});
  });
  EXPECT_EQ(t.runs, 9u);  // one line per segment System
  EXPECT_EQ(t.cycles, 488981u);
  EXPECT_EQ(t.stepped, 360491u);
}

// The skip windows of a run without a hook: a static-dispatch dynmg+BMA
// Logit whose 2 MiB of keys overflow the 1 MiB LLC, so dirty victims write
// back and the run lasts through refreshes. Its windows are bounded by
// core, slice, NoC, throttle and DRAM read events alone, so a change to
// any of those bounds moves the totals.
TEST(UnhookedSkipWindows, CapacityLogitIsPinned) {
  SimConfig cfg = with_policies(small_config(), ThrottlePolicy::kDynMg,
                                ArbPolicy::kBma);
  cfg.core.tb_dispatch = TbDispatch::kStaticBlocked;
  const Workload wl = Workload::logit(tiny_model(), 4096, cfg);
  SimStats s;
  const FastpathTotals t =
      fastpath_totals([&] { s = run_simulation(cfg, wl); });
  EXPECT_GT(s.counters.get("dram.writes"), 0u);
  EXPECT_GT(s.counters.get("dram.refreshes"), 0u);
  EXPECT_EQ(t.runs, 1u);
  EXPECT_EQ(t.cycles, 488089u);
  EXPECT_EQ(t.stepped, 337084u);
  EXPECT_EQ(t.windows, 22790u);
}

// A slice of the pinned fuzz corpus (randomized machine/batch/policy
// draws): the fast path must reproduce the disabled path byte for byte on
// scenarios nobody hand-picked. The seeds match the corpus pinned in
// tests/test_serving_fuzz.cpp. The whole fuzz contract runs a second time
// on the stepped path.
class FuzzCorpusFastpath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCorpusFastpath, FastPathOffIsByteIdenticalToOn) {
  const std::uint64_t seed = GetParam();
  const FuzzResult fast = scenario::run_fuzz_seed(seed);
  EXPECT_TRUE(fast.ok()) << fast.violations.front();
  scenario::FuzzScenario sc = scenario::draw_scenario(seed);
  sc.cfg.fast_path = false;
  const FuzzResult slow = scenario::run_fuzz_scenario(seed, sc);
  EXPECT_TRUE(slow.ok()) << slow.violations.front();
  EXPECT_FALSE(fast.digest.empty());
  EXPECT_EQ(fast.digest, slow.digest);
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, FuzzCorpusFastpath,
                         ::testing::Values(57u, 93u, 148u, 171u));

// The parallel sweep contract behind `llamcat_stress --jobs=N`: a sweep
// fanned across 4 worker threads lands every result in its seed-order slot
// and is bit-identical to the serial sweep.
TEST(ParallelSweep, FourJobsMatchesSerial) {
  constexpr std::uint64_t kBase = 57;
  constexpr std::uint64_t kRuns = 8;
  const std::vector<FuzzResult> serial =
      scenario::run_fuzz_sweep(kBase, kRuns, /*jobs=*/1);
  const std::vector<FuzzResult> parallel =
      scenario::run_fuzz_sweep(kBase, kRuns, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].violations, parallel[i].violations);
    EXPECT_FALSE(serial[i].digest.empty()) << "seed " << serial[i].seed;
    EXPECT_EQ(serial[i].digest, parallel[i].digest)
        << "seed " << serial[i].seed;
  }
}

}  // namespace
}  // namespace llamcat
