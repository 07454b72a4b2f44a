// DRAM system property tests: completion exactness under random mixed
// traffic, bank-level parallelism, channel isolation, and accounting
// invariants. Complements the timing-legality unit tests in test_dram.cpp.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "dram/dram_system.hpp"

namespace llamcat {
namespace {

DramConfig small_cfg() {
  DramConfig cfg;
  cfg.num_channels = 2;
  cfg.ranks_per_channel = 1;
  cfg.enable_refresh = false;  // determinism of latency comparisons
  return cfg;
}

/// Enqueues when the controller has room, ticking as needed.
void feed(DramSystem& sys, const DramRequest& r) {
  while (!sys.can_accept(r)) sys.advance(1);
  sys.enqueue(r);
}

TEST(DramProperties, EveryReadCompletesExactlyOnce) {
  DramSystem sys(small_cfg(), 1.96e9);
  Xoshiro256 rng(5);
  std::map<Addr, int> expected;
  std::vector<DramCompletion> done;
  // Completions fire during the backpressure ticks inside feed() too, so
  // the callback must be installed before the first enqueue.
  sys.on_read_complete = [&done](const DramCompletion& c) {
    done.push_back(c);
  };
  for (int i = 0; i < 500; ++i) {
    const Addr line = line_align(rng.below(1ull << 28));
    if (expected.count(line)) continue;  // model merges duplicates upstream
    expected[line] = 0;
    feed(sys, DramRequest{line, /*is_write=*/false, 0});
  }
  std::uint64_t guard = 0;
  while (!sys.idle()) {
    sys.advance(1);
    ASSERT_LT(++guard, 10'000'000u);
  }
  EXPECT_EQ(done.size(), expected.size());
  for (const auto& c : done) {
    auto it = expected.find(c.line_addr);
    ASSERT_NE(it, expected.end()) << "completion for a line never requested";
    EXPECT_EQ(++it->second, 1) << "double completion";
  }
}

TEST(DramProperties, WritesProduceNoReadCompletions) {
  DramSystem sys(small_cfg(), 1.96e9);
  std::vector<DramCompletion> done;
  sys.on_read_complete = [&done](const DramCompletion& c) {
    done.push_back(c);
  };
  for (int i = 0; i < 64; ++i) {
    feed(sys, DramRequest{static_cast<Addr>(i) * kLineBytes,
                          /*is_write=*/true, 0});
  }
  std::uint64_t guard = 0;
  while (!sys.idle()) {
    sys.advance(1);
    ASSERT_LT(++guard, 10'000'000u);
  }
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(sys.stats().get("dram.writes"), 64u);
}

TEST(DramProperties, BytesAccountingMatchesOperations) {
  DramSystem sys(small_cfg(), 1.96e9);
  for (int i = 0; i < 32; ++i) {
    feed(sys, DramRequest{static_cast<Addr>(i) * kLineBytes, i % 2 == 0, 0});
  }
  std::uint64_t guard = 0;
  while (!sys.idle()) {
    sys.advance(1);
    ASSERT_LT(++guard, 10'000'000u);
  }
  EXPECT_EQ(sys.bytes_transferred(), 32ull * kLineBytes);
}

/// Cycles to drain n reads laid out by `addr_of`.
std::uint64_t cycles_to_drain(const DramConfig& cfg, int n,
                              Addr (*addr_of)(int, const DramConfig&)) {
  DramSystem sys(cfg, 1.96e9);
  sys.on_read_complete = [](const DramCompletion&) {};
  for (int i = 0; i < n; ++i) {
    const DramRequest r{addr_of(i, cfg), false, 0};
    while (!sys.can_accept(r)) sys.advance(1);
    sys.enqueue(r);
  }
  std::uint64_t cycles = 0;
  while (!sys.idle()) {
    sys.advance(1);
    ++cycles;
    if (cycles > 10'000'000) ADD_FAILURE() << "never drained";
  }
  return cycles;
}

TEST(DramProperties, BankParallelismBeatsBankConflicts) {
  const DramConfig cfg = small_cfg();
  // Same channel, different bank groups, different rows: overlappable.
  auto parallel = [](int i, const DramConfig& c) -> Addr {
    const AddressMap map(c);
    DramCoord coord{};
    coord.channel = 0;
    coord.bankgroup = static_cast<std::uint32_t>(i) % c.bankgroups_per_rank;
    coord.bank = (static_cast<std::uint32_t>(i) / c.bankgroups_per_rank) %
                 c.banks_per_bankgroup;
    coord.row = 100 + static_cast<std::uint32_t>(i);
    return map.encode(coord);
  };
  // Same channel, same bank, different rows: strict row conflicts.
  auto conflicted = [](int i, const DramConfig& c) -> Addr {
    const AddressMap map(c);
    DramCoord coord{};
    coord.channel = 0;
    coord.row = 100 + static_cast<std::uint32_t>(i);
    return map.encode(coord);
  };
  const std::uint64_t par = cycles_to_drain(cfg, 16, parallel);
  const std::uint64_t ser = cycles_to_drain(cfg, 16, conflicted);
  EXPECT_LT(par * 3, ser * 2)
      << "bank-parallel stream should be >=1.5x faster (" << par << " vs "
      << ser << ")";
}

TEST(DramProperties, RowHitStreamBeatsRowThrash) {
  const DramConfig cfg = small_cfg();
  auto sequential = [](int i, const DramConfig& c) -> Addr {
    // One channel's view of a contiguous stream: stride by channel count.
    return static_cast<Addr>(i) * kLineBytes * c.num_channels;
  };
  auto thrash = [](int i, const DramConfig& c) -> Addr {
    const AddressMap map(c);
    DramCoord coord{};
    coord.channel = 0;
    coord.row = 10 + static_cast<std::uint32_t>(i % 2) * 64;  // ping-pong
    coord.col = static_cast<std::uint32_t>(i) % 32;
    return map.encode(coord);
  };
  const std::uint64_t hits = cycles_to_drain(cfg, 32, sequential);
  const std::uint64_t miss = cycles_to_drain(cfg, 32, thrash);
  EXPECT_LT(hits, miss);
}

TEST(DramProperties, ChannelsAreIndependent) {
  const DramConfig cfg = small_cfg();
  // Unloaded single read on channel 1.
  auto solo = [](int, const DramConfig& c) -> Addr {
    const AddressMap map(c);
    DramCoord coord{};
    coord.channel = 1;
    coord.row = 7;
    return map.encode(coord);
  };
  const std::uint64_t unloaded = cycles_to_drain(cfg, 1, solo);

  // The same read while channel 0 is saturated with row conflicts.
  DramSystem sys(cfg, 1.96e9);
  std::uint64_t last_done = 0;
  const AddressMap map(cfg);
  DramCoord coord{};
  coord.channel = 1;
  coord.row = 7;
  const Addr probe = map.encode(coord);
  std::uint64_t cycles = 0;
  sys.on_read_complete = [&](const DramCompletion& c) {
    if (c.line_addr == probe) last_done = cycles;
  };
  for (int i = 0; i < 16; ++i) {
    DramCoord busy{};
    busy.channel = 0;
    busy.row = 100 + static_cast<std::uint32_t>(i);
    const DramRequest r{map.encode(busy), false, 0};
    while (!sys.can_accept(r)) {
      sys.advance(1);
      ++cycles;
    }
    sys.enqueue(r);
  }
  const DramRequest pr{probe, false, 0};
  while (!sys.can_accept(pr)) {
    sys.advance(1);
    ++cycles;
  }
  sys.enqueue(pr);
  const std::uint64_t issued_at = cycles;
  while (!sys.idle()) {
    sys.advance(1);
    ++cycles;
    ASSERT_LT(cycles, 10'000'000u);
  }
  ASSERT_GT(last_done, 0u);
  // The probe's latency on its own channel is unaffected by the other
  // channel's congestion (within a small scheduling slack).
  EXPECT_LE(last_done - issued_at, unloaded + unloaded / 2);
}

TEST(DramProperties, StatsRowOutcomesPartitionAccesses) {
  DramSystem sys(small_cfg(), 1.96e9);
  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    feed(sys, DramRequest{line_align(rng.below(1ull << 26)), false, 0});
  }
  sys.on_read_complete = [](const DramCompletion&) {};
  std::uint64_t guard = 0;
  while (!sys.idle()) {
    sys.advance(1);
    ASSERT_LT(++guard, 10'000'000u);
  }
  const StatSet s = sys.stats();
  // Every data command is classified exactly once as a row hit or a row
  // miss; conflicts count the precharges forced on top of those misses.
  EXPECT_EQ(s.get("dram.row_hits") + s.get("dram.row_misses"),
            s.get("dram.reads") + s.get("dram.writes"));
  EXPECT_LE(s.get("dram.row_conflicts"), s.get("dram.row_misses"));
  EXPECT_EQ(s.get("dram.reads"), 200u);
}

}  // namespace
}  // namespace llamcat
