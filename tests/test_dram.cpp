// Unit + property tests: DDR5 timing model, address mapping, FR-FCFS
// controller, multi-channel system, clock-domain crossing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "dram/dram_system.hpp"

namespace llamcat {
namespace {

DramConfig test_cfg() {
  DramConfig cfg;  // defaults = Table 5 derived
  return cfg;
}

TEST(DramTiming, DerivedValues) {
  const DramTiming t(test_cfg());
  EXPECT_EQ(t.tBurst, 4u);  // BL8, DDR
  EXPECT_EQ(t.read_latency(), t.tCL + t.tBurst);
  EXPECT_EQ(t.write_latency(), t.tCWL + t.tBurst);
}

TEST(AddressMap, DecodeEncodeRoundTrip) {
  const AddressMap map(test_cfg());
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    // Addresses within the mapped capacity (2+5+2+1+2+16 = 28 line bits
    // for the Table 5 geometry -> 2^34 bytes).
    const Addr line = line_align(rng.below(1ull << 33));
    const DramCoord c = map.decode(line);
    EXPECT_EQ(map.encode(c), line);
  }
}

TEST(AddressMap, ConsecutiveLinesStripeChannels) {
  const DramConfig cfg = test_cfg();
  const AddressMap map(cfg);
  for (Addr i = 0; i < 64; ++i) {
    EXPECT_EQ(map.decode(i * kLineBytes).channel, i % cfg.num_channels);
  }
}

TEST(AddressMap, StreamHasRowLocality) {
  // A contiguous stream should revisit the same row for many lines within
  // one channel before moving on (col bits above channel bits).
  const DramConfig cfg = test_cfg();
  const AddressMap map(cfg);
  const std::uint32_t lines_per_row = cfg.row_bytes / kLineBytes;
  std::map<std::uint32_t, std::set<std::uint32_t>> rows_touched;
  for (Addr i = 0; i < static_cast<Addr>(lines_per_row) * cfg.num_channels;
       ++i) {
    const DramCoord c = map.decode(i * kLineBytes);
    rows_touched[c.channel].insert(c.row);
  }
  for (const auto& [ch, rows] : rows_touched) {
    EXPECT_EQ(rows.size(), 1u) << "channel " << ch;
  }
}

TEST(Bank, ActivateReadPrechargeLegality) {
  const DramTiming t(test_cfg());
  Bank bank;
  EXPECT_FALSE(bank.row_open());
  EXPECT_EQ(bank.act_allowed(), 0u);
  bank.do_activate(0, 7, t);
  EXPECT_EQ(bank.open_row(), 7u);             // row 7 readable, row 8 not
  EXPECT_EQ(bank.rd_allowed(), t.tRCD);       // RD from tRCD
  EXPECT_EQ(bank.wr_allowed(), t.tRCD);
  EXPECT_EQ(bank.pre_allowed(), t.tRAS);      // PRE from tRAS
  bank.do_precharge(t.tRAS, t);
  EXPECT_FALSE(bank.row_open());
  // Next ACT: tRC after the ACT and tRP after the PRE.
  EXPECT_EQ(bank.act_allowed(), std::max<DramTick>(t.tRC, t.tRAS + t.tRP));
}

TEST(Bank, WriteRecoveryBlocksPrecharge) {
  const DramTiming t(test_cfg());
  Bank bank;
  bank.do_activate(0, 1, t);
  bank.do_write(t.tRCD, t);
  const DramTick wr_done = t.tRCD + t.tCWL + t.tBurst + t.tWR;
  EXPECT_TRUE(bank.row_open());
  EXPECT_EQ(bank.pre_allowed(), wr_done);
}

TEST(Rank, FawLimitsActivates) {
  // Use a timing where tFAW binds beyond 4 x tRRD_S.
  DramConfig cfg = test_cfg();
  cfg.tRRD_S = 4;
  cfg.tFAW = 32;
  const DramTiming t(cfg);
  RankState rank;
  DramTick now = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_LE(rank.act_ready_at(t), now) << i;
    rank.on_activate(now, t);
    now += t.tRRD_S;
  }
  // now = 16: tRRD is satisfied but only 4 ACTs fit in any tFAW window;
  // the next ACT waits until the first one rolls out at tFAW = 32.
  EXPECT_GT(rank.act_ready_at(t), now);
  EXPECT_EQ(rank.act_ready_at(t), t.tFAW);
}

TEST(DramController, SingleReadCompletes) {
  const DramConfig cfg = test_cfg();
  const DramTiming t(cfg);
  const AddressMap map(cfg);
  DramController ctrl(cfg, t, map, 0);
  ctrl.enqueue(DramRequest{0, false, 99}, 0);
  std::vector<DramCompletion> done;
  DramTick now = 0;
  while (done.empty() && now < 10000) {
    ctrl.tick(now, done);
    ++now;
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].payload, 99u);
  // Unloaded latency: ACT + tRCD + CL + burst + ctrl_latency (+1 tick).
  const DramTick expect =
      1 + t.tRCD + t.read_latency() + cfg.ctrl_latency;
  EXPECT_NEAR(static_cast<double>(done[0].finish_tick),
              static_cast<double>(expect), 3.0);
  EXPECT_TRUE(ctrl.idle());
}

TEST(DramController, RowHitStreamIsEfficient) {
  DramConfig cfg = test_cfg();
  cfg.enable_refresh = false;
  const DramTiming t(cfg);
  const AddressMap map(cfg);
  DramController ctrl(cfg, t, map, 0);
  // Feed a contiguous stream on channel 0 (stride = channels * line).
  std::vector<DramCompletion> done;
  DramTick now = 0;
  Addr next = 0;
  std::uint64_t issued = 0;
  while (done.size() < 256 && now < 100000) {
    if (issued < 256 && ctrl.can_accept_read()) {
      ctrl.enqueue(DramRequest{next, false, 0}, now);
      next += static_cast<Addr>(kLineBytes) * cfg.num_channels;
      ++issued;
    }
    ctrl.tick(now, done);
    ++now;
  }
  ASSERT_EQ(done.size(), 256u);
  const auto& c = ctrl.counters();
  EXPECT_GT(c.row_hits, c.row_misses * 4) << "stream should be row-hit bound";
}

TEST(DramController, WriteDrainHysteresis) {
  DramConfig cfg = test_cfg();
  cfg.enable_refresh = false;
  const DramTiming t(cfg);
  const AddressMap map(cfg);
  DramController ctrl(cfg, t, map, 0);
  // Fill the write queue to the high-water mark; writes must eventually
  // drain even with no reads.
  DramTick now = 0;
  std::vector<DramCompletion> done;
  std::uint32_t enqueued = 0;
  while (enqueued < cfg.write_q_size) {
    if (ctrl.can_accept_write()) {
      ctrl.enqueue(
          DramRequest{static_cast<Addr>(enqueued) * kLineBytes *
                          cfg.num_channels,
                      true, 0},
          now);
      ++enqueued;
    }
    ctrl.tick(now, done);
    ++now;
  }
  while (!ctrl.idle() && now < 200000) {
    ctrl.tick(now, done);
    ++now;
  }
  EXPECT_TRUE(ctrl.idle());
  EXPECT_EQ(ctrl.counters().writes, cfg.write_q_size);
}

TEST(DramSystem, CompletesAllReadsAcrossChannels) {
  const SimConfig sim = SimConfig::table5();
  DramSystem dram(sim.dram, sim.core_hz);
  std::uint64_t completed = 0;
  dram.on_read_complete = [&](const DramCompletion&) { ++completed; };
  std::uint64_t issued = 0;
  Addr next = 0;
  std::uint64_t guard = 0;
  while (completed < 1000 && ++guard < 2'000'000) {
    if (issued < 1000) {
      const DramRequest r{next, false, 0};
      if (dram.can_accept(r)) {
        dram.enqueue(r);
        next += kLineBytes;
        ++issued;
      }
    }
    dram.advance(1);
  }
  EXPECT_EQ(completed, 1000u);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.bytes_transferred(), 1000u * kLineBytes);
}

TEST(DramSystem, ClockDomainRatio) {
  const SimConfig sim = SimConfig::table5();
  DramSystem dram(sim.dram, sim.core_hz);
  for (int i = 0; i < 49'000; ++i) dram.advance(1);
  EXPECT_EQ(dram.now(), 40'000u);  // 40:49 exactly
}

TEST(DramSystem, PeakBandwidthMatchesConfig) {
  const SimConfig sim = SimConfig::table5();
  DramSystem dram(sim.dram, sim.core_hz);
  EXPECT_NEAR(dram.peak_gbps(), 102.4, 0.1);
}

TEST(DramSystem, RefreshHappens) {
  const SimConfig sim = SimConfig::table5();
  DramSystem dram(sim.dram, sim.core_hz);
  // Enough core cycles for several tREFI periods.
  for (int i = 0; i < 20'000; ++i) dram.advance(1);
  EXPECT_GT(dram.stats().get("dram.refreshes"), 0u);
}

// Property sweep: latency monotonicity wrt controller latency.
class DramCtrlLatency : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DramCtrlLatency, UnloadedLatencyScales) {
  DramConfig cfg = test_cfg();
  cfg.ctrl_latency = GetParam();
  const DramTiming t(cfg);
  const AddressMap map(cfg);
  DramController ctrl(cfg, t, map, 0);
  ctrl.enqueue(DramRequest{0, false, 0}, 0);
  std::vector<DramCompletion> done;
  DramTick now = 0;
  while (done.empty() && now < 10000) ctrl.tick(now++, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(done[0].finish_tick, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramCtrlLatency,
                         ::testing::Values(0u, 20u, 80u, 200u));

}  // namespace
}  // namespace llamcat
