// Unit tests: common utilities (math, clock divider, RNG, stats, tables,
// thread pool, config validation).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "common/config.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace llamcat {
namespace {

TEST(MathUtil, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(MathUtil, IsPow2AndLog2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(8), 3u);
  EXPECT_EQ(log2_floor(9), 3u);
}

TEST(ClockDivider, Exact40To49Ratio) {
  // The Table 5 clock pair: 1.6 GHz DRAM vs 1.96 GHz core = 40:49.
  ClockDivider div(40, 49);
  std::uint64_t slow = 0;
  const std::uint64_t fast_ticks = 49'000;
  for (std::uint64_t i = 0; i < fast_ticks; ++i) slow += div.advance();
  EXPECT_EQ(slow, 40'000u);
}

TEST(ClockDivider, NeverProducesMoreThanOne) {
  ClockDivider div(999, 1000);
  for (int i = 0; i < 10000; ++i) EXPECT_LE(div.advance(), 1u);
}

TEST(OccupancyAverage, TimeWeighted) {
  OccupancyAverage avg;
  avg.add(1.0, 3);
  avg.add(0.0, 1);
  EXPECT_DOUBLE_EQ(avg.mean(), 0.75);
  avg.reset();
  EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
}

TEST(Rng, DeterministicAndDistinct) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(42);
  bool same = true;
  for (int i = 0; i < 8; ++i) same = same && (a2() == c());
  EXPECT_FALSE(same);
}

TEST(Rng, BelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StatSet, MergeAddsCounters) {
  StatSet a, b;
  a.inc("x", 3);
  b.inc("x", 4);
  b.inc("y");
  a.merge(b);
  EXPECT_EQ(a.get("x"), 7u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.get("zzz"), 0u);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t("demo");
  t.set_header({"a", "long-column"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("long-column"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("333,4"), std::string::npos);
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(Config, Table5Defaults) {
  const SimConfig cfg = SimConfig::table5();
  EXPECT_EQ(cfg.core.num_cores, 16u);
  EXPECT_EQ(cfg.core.num_inst_windows, 4u);
  EXPECT_EQ(cfg.core.inst_window_depth, 128u);
  EXPECT_EQ(cfg.llc.size_bytes, 16ull << 20);
  EXPECT_EQ(cfg.llc.num_slices, 8u);
  EXPECT_EQ(cfg.llc.assoc, 8u);
  EXPECT_EQ(cfg.llc.hit_latency, 3u);
  EXPECT_EQ(cfg.llc.data_latency, 25u);
  EXPECT_EQ(cfg.llc.mshr_latency, 5u);
  EXPECT_EQ(cfg.llc.mshr_entries, 6u);
  EXPECT_EQ(cfg.llc.mshr_targets, 8u);
  EXPECT_EQ(cfg.llc.req_q_size, 12u);
  EXPECT_EQ(cfg.llc.resp_q_size, 64u);
  EXPECT_EQ(cfg.llc.resp_arb, RespArbPolicy::kResponseFirst);
  EXPECT_EQ(cfg.dram.num_channels, 4u);
  EXPECT_EQ(cfg.dram.ranks_per_channel, 4u);
  EXPECT_DOUBLE_EQ(cfg.core_hz, 1.96e9);
  EXPECT_EQ(cfg.l1.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.l1.assoc, 8u);
  EXPECT_EQ(cfg.l1.latency, 1u);
}

TEST(Config, Table1To3ThrottleDefaults) {
  const SimConfig cfg = SimConfig::table5();
  EXPECT_EQ(cfg.throttle.sampling_period, 2000u);
  EXPECT_EQ(cfg.throttle.sub_period, 400u);
  EXPECT_EQ(cfg.throttle.max_gear, 4u);
  const std::uint32_t expect_eighths[5] = {0, 1, 2, 4, 6};
  for (int g = 0; g <= 4; ++g)
    EXPECT_EQ(cfg.throttle.gear_eighths[g], expect_eighths[g]) << g;
  // Table 3 bands are re-swept for this substrate (see ThrottleConfig);
  // the shipped defaults must keep the gear parked at the miss-handling-
  // bound regime's baseline t_cs (~0.59) and engage under capacity
  // pressure (~0.74+).
  EXPECT_DOUBLE_EQ(cfg.throttle.tcs_low, 0.62);
  EXPECT_DOUBLE_EQ(cfg.throttle.tcs_normal, 0.68);
  EXPECT_DOUBLE_EQ(cfg.throttle.tcs_high, 0.75);
  // Table 4 in-core bounds are the paper's swept optima.
  EXPECT_EQ(cfg.throttle.c_idle_upper, 4u);
  EXPECT_EQ(cfg.throttle.c_mem_upper, 250u);
  EXPECT_EQ(cfg.throttle.c_mem_lower, 180u);
}

TEST(Config, ValidationCatchesBadGeometry) {
  SimConfig cfg = SimConfig::table5();
  cfg.llc.num_slices = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::table5();
  cfg.core.num_cores = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::table5();
  cfg.throttle.sampling_period = 1000;
  cfg.throttle.sub_period = 300;  // not a divisor
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::table5();
  cfg.throttle.tcs_low = cfg.throttle.tcs_normal + 0.01;  // not increasing
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A zero-set LLC divides evenly into any slice count but cannot hold a
  // line.
  cfg = SimConfig::table5();
  cfg.llc.size_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.llc.size_bytes = cfg.llc.assoc * kLineBytes - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // NaN fails the range check instead of slipping past both comparisons.
  for (const double p : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.1}) {
    cfg = SimConfig::table5();
    cfg.llc.bypass.keep_probability = p;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << p;
  }
}

TEST(Config, PolicyNames) {
  EXPECT_EQ(to_string(ArbPolicy::kBma), "BMA");
  EXPECT_EQ(to_string(ThrottlePolicy::kDynMg), "dynmg");
  EXPECT_EQ(to_string(RespArbPolicy::kResponseFirst), "response-first");
  // Every canonical name: reports, digests and golden rows print them.
  EXPECT_EQ(to_string(ArbPolicy::kFcfs), "fcfs");
  EXPECT_EQ(to_string(ArbPolicy::kBalanced), "B");
  EXPECT_EQ(to_string(ArbPolicy::kMa), "MA");
  EXPECT_EQ(to_string(ArbPolicy::kCobrra), "cobrra");
  EXPECT_EQ(to_string(ArbPolicy::kMrpb), "mrpb");
  EXPECT_EQ(to_string(ArbPolicy::kOracle), "oracle");
  EXPECT_EQ(to_string(ArbPolicy::kRandom), "random");
  EXPECT_EQ(to_string(BypassPolicy::kNone), "none");
  EXPECT_EQ(to_string(BypassPolicy::kAll), "all");
  EXPECT_EQ(to_string(BypassPolicy::kProbabilistic), "probabilistic");
  EXPECT_EQ(to_string(BypassPolicy::kReuseHistory), "reuse-history");
  EXPECT_EQ(to_string(ReplPolicy::kLru), "lru");
  EXPECT_EQ(to_string(ReplPolicy::kTreePlru), "tree-plru");
  EXPECT_EQ(to_string(ReplPolicy::kRandom), "random");
  EXPECT_EQ(to_string(ReplPolicy::kSrrip), "srrip");
  EXPECT_EQ(to_string(ReplPolicy::kFifo), "fifo");
  EXPECT_EQ(to_string(InsertPolicy::kMru), "mru");
  EXPECT_EQ(to_string(InsertPolicy::kStreaming), "streaming");
  EXPECT_EQ(to_string(RespArbPolicy::kRequestFirst), "request-first");
  EXPECT_EQ(to_string(ThrottlePolicy::kNone), "unopt");
  EXPECT_EQ(to_string(ThrottlePolicy::kDyncta), "dyncta");
  EXPECT_EQ(to_string(ThrottlePolicy::kLcs), "lcs");
  EXPECT_EQ(to_string(RequestDispatch::kShared), "shared");
  EXPECT_EQ(to_string(RequestDispatch::kInterleave), "interleave");
  EXPECT_EQ(to_string(RequestDispatch::kPartitioned), "partitioned");
  EXPECT_EQ(to_string(ExecutionMode::kIndependent), "independent");
  EXPECT_EQ(to_string(ExecutionMode::kCoScheduled), "coscheduled");
  EXPECT_EQ(to_string(ExecutionMode::kContinuous), "continuous");
  EXPECT_EQ(to_string(AdmitPolicy::kNone), "none");
  EXPECT_EQ(to_string(AdmitPolicy::kFcfs), "fcfs");
  EXPECT_EQ(to_string(AdmitPolicy::kShortestRemaining), "srf");
  EXPECT_EQ(to_string(KvEvictPolicy::kNone), "none");
  EXPECT_EQ(to_string(KvEvictPolicy::kColdBlocks), "cold-blocks");
  EXPECT_EQ(to_string(TrafficProcess::kPoisson), "poisson");
  EXPECT_EQ(to_string(TrafficProcess::kBursty), "bursty");
  EXPECT_EQ(to_string(TrafficProcess::kDiurnal), "diurnal");
  EXPECT_EQ(to_string(TrafficDist::kUniform), "uniform");
  EXPECT_EQ(to_string(TrafficDist::kLognormal), "lognormal");
}

TEST(Types, LineHelpers) {
  EXPECT_EQ(line_align(0x1234), 0x1200u);
  EXPECT_EQ(line_align(0x1240), 0x1240u);
  EXPECT_EQ(line_index(0x1240), 0x49u);
}

}  // namespace
}  // namespace llamcat
