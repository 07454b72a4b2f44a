// Unit + property tests: cache array (replacement/insertion policies),
// MSHR semantics, L1 behavior (write-through / no-allocate / merging).
#include <gtest/gtest.h>

#include <set>

#include "cache/cache_array.hpp"
#include "cache/l1_cache.hpp"
#include "cache/mshr.hpp"
#include "common/rng.hpp"

namespace llamcat {
namespace {

Addr line(std::uint64_t i) { return i * kLineBytes; }

TEST(CacheArray, FillProbeTouch) {
  CacheArray a(4, 2, ReplPolicy::kLru, InsertPolicy::kMru);
  EXPECT_FALSE(a.probe(0, line(0)));
  EXPECT_FALSE(a.touch(0, line(0)));
  a.fill(0, line(0), false);
  EXPECT_TRUE(a.probe(0, line(0)));
  EXPECT_TRUE(a.touch(0, line(0)));
  EXPECT_EQ(a.valid_count(), 1u);
}

TEST(CacheArray, LruEvictsOldest) {
  CacheArray a(1, 2, ReplPolicy::kLru, InsertPolicy::kMru);
  a.fill(0, line(1), false);
  a.fill(0, line(2), false);
  a.touch(0, line(1));  // 2 is now LRU
  const auto ev = a.fill(0, line(3), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(2));
}

TEST(CacheArray, StreamingInsertIsVictimFirst) {
  CacheArray a(1, 4, ReplPolicy::kLru, InsertPolicy::kStreaming);
  for (int i = 0; i < 4; ++i) a.fill(0, line(i), false);
  a.touch(0, line(0));
  a.touch(0, line(1));
  a.touch(0, line(2));
  // line(3) was streaming-inserted (stamp 0) and never touched -> victim.
  const auto ev = a.fill(0, line(9), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(3));
}

TEST(CacheArray, DirtyPropagatesToEviction) {
  CacheArray a(1, 1, ReplPolicy::kLru, InsertPolicy::kMru);
  a.fill(0, line(1), false);
  EXPECT_TRUE(a.mark_dirty(0, line(1)));
  const auto ev = a.fill(0, line(2), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(CacheArray, InvalidateRemoves) {
  CacheArray a(2, 2, ReplPolicy::kLru, InsertPolicy::kMru);
  a.fill(1, line(5), false);
  EXPECT_TRUE(a.invalidate(1, line(5)));
  EXPECT_FALSE(a.probe(1, line(5)));
  EXPECT_FALSE(a.invalidate(1, line(5)));
}

// Property: whatever the policy, contents are a subset of what was filled
// and capacity is never exceeded.
class CacheArrayPolicy : public ::testing::TestWithParam<
                             std::tuple<ReplPolicy, InsertPolicy>> {};

TEST_P(CacheArrayPolicy, InvariantsUnderRandomWorkload) {
  const auto [repl, ins] = GetParam();
  CacheArray a(8, 4, repl, ins, /*seed=*/3);
  Xoshiro256 rng(5);
  std::set<Addr> inserted;
  for (int i = 0; i < 5000; ++i) {
    const Addr l = line(rng.below(256));
    const std::uint32_t set = static_cast<std::uint32_t>(line_index(l) % 8);
    if (!a.touch(set, l)) {
      a.fill(set, l, rng.below(2) == 0);
      inserted.insert(l);
    }
  }
  EXPECT_LE(a.valid_count(), 8u * 4u);
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (Addr l : a.set_contents(s)) {
      EXPECT_TRUE(inserted.count(l)) << "ghost line";
      EXPECT_EQ(line_index(l) % 8, s) << "line in wrong set";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CacheArrayPolicy,
    ::testing::Combine(::testing::Values(ReplPolicy::kLru,
                                         ReplPolicy::kTreePlru,
                                         ReplPolicy::kRandom),
                       ::testing::Values(InsertPolicy::kMru,
                                         InsertPolicy::kStreaming)));

// ---------------------------------------------------------------- MSHR --

TEST(Mshr, AllocateMergeRelease) {
  Mshr m(2, 2);
  EXPECT_EQ(m.add(line(1), {0, 10, false}, 0), Mshr::AddResult::kNewEntry);
  EXPECT_EQ(m.add(line(1), {1, 11, false}, 1), Mshr::AddResult::kMerged);
  EXPECT_EQ(m.occupancy(), 1u);
  std::vector<MshrTarget> targets;
  m.release(line(1), targets);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].req_id, 10u);
  EXPECT_EQ(targets[1].core, 1u);
  EXPECT_EQ(m.occupancy(), 0u);
}

TEST(Mshr, NumEntryExhaustion) {
  Mshr m(2, 8);
  EXPECT_EQ(m.add(line(1), {0, 0, false}, 0), Mshr::AddResult::kNewEntry);
  EXPECT_EQ(m.add(line(2), {0, 0, false}, 0), Mshr::AddResult::kNewEntry);
  EXPECT_FALSE(m.entry_available());
  EXPECT_EQ(m.add(line(3), {0, 0, false}, 0), Mshr::AddResult::kNoEntryFree);
  // Merging into an existing entry still works while entries are full.
  EXPECT_EQ(m.add(line(1), {1, 0, false}, 0), Mshr::AddResult::kMerged);
}

TEST(Mshr, NumTargetExhaustion) {
  Mshr m(4, 2);
  m.add(line(1), {0, 0, false}, 0);
  m.add(line(1), {1, 0, false}, 0);
  EXPECT_EQ(m.add(line(1), {2, 0, false}, 0),
            Mshr::AddResult::kNoTargetFree);
  // A different line can still allocate.
  EXPECT_EQ(m.add(line(2), {2, 0, false}, 0), Mshr::AddResult::kNewEntry);
}

TEST(Mshr, StoreTargetsTracked) {
  Mshr m(2, 4);
  m.add(line(7), {0, kStoreReqId, true}, 0);
  m.add(line(7), {1, 5, false}, 0);
  std::vector<MshrTarget> targets;
  m.release(line(7), targets);
  EXPECT_TRUE(targets[0].is_store);
  EXPECT_FALSE(targets[1].is_store);
}

TEST(Mshr, OccupancySampling) {
  Mshr m(4, 4);
  m.sample_occupancy();  // 0/4
  m.add(line(1), {0, 0, false}, 0);
  m.add(line(2), {0, 0, false}, 0);
  m.sample_occupancy();  // 2/4
  EXPECT_DOUBLE_EQ(m.avg_entry_utilization(), 0.25);
}

// Property sweep over MSHR dimensions.
class MshrDims
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(MshrDims, NeverExceedsEitherDimension) {
  const auto [entries, targets] = GetParam();
  Mshr m(entries, targets);
  std::vector<MshrTarget> released;
  Xoshiro256 rng(9);
  for (int i = 0; i < 2000; ++i) {
    const Addr l = line(rng.below(entries * 2));
    const auto r = m.add(l, {0, 0, false}, i);
    EXPECT_LE(m.occupancy(), entries);
    if (const auto* e = m.find(l)) {
      EXPECT_LE(e->targets.size(), targets);
    }
    if (r == Mshr::AddResult::kNoTargetFree && rng.below(2) == 0) {
      m.release(l, released);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MshrDims,
                         ::testing::Combine(::testing::Values(1u, 2u, 6u, 16u),
                                            ::testing::Values(1u, 8u, 32u)));

// ------------------------------------------------------------------ L1 --

L1Config l1_cfg() {
  L1Config cfg;
  cfg.size_bytes = 1024;  // 2 sets x 8 ways for focused eviction tests
  cfg.miss_queue_entries = 2;
  return cfg;
}

TEST(L1Cache, MissThenFillThenHit) {
  L1Cache l1(l1_cfg(), 0, 1);
  EXPECT_EQ(l1.access_load(line(1), 100), L1Cache::LoadResult::kMissNew);
  ASSERT_TRUE(l1.peek_outbox().has_value());
  EXPECT_EQ(*l1.peek_outbox(), line(1));
  l1.pop_outbox();
  const auto woken = l1.on_fill(line(1));
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 100u);
  EXPECT_EQ(l1.access_load(line(1), 101), L1Cache::LoadResult::kHit);
}

TEST(L1Cache, MergesSameLineMisses) {
  L1Cache l1(l1_cfg(), 0, 1);
  EXPECT_EQ(l1.access_load(line(1), 1), L1Cache::LoadResult::kMissNew);
  EXPECT_EQ(l1.access_load(line(1), 2), L1Cache::LoadResult::kMissMerged);
  EXPECT_EQ(l1.outstanding_misses(), 1u);
  const auto woken = l1.on_fill(line(1));
  EXPECT_EQ(woken.size(), 2u);
}

TEST(L1Cache, MissQueueBlocks) {
  L1Cache l1(l1_cfg(), 0, 1);
  EXPECT_EQ(l1.access_load(line(1), 1), L1Cache::LoadResult::kMissNew);
  EXPECT_EQ(l1.access_load(line(2), 2), L1Cache::LoadResult::kMissNew);
  EXPECT_EQ(l1.access_load(line(3), 3), L1Cache::LoadResult::kBlocked);
  l1.on_fill(line(1));
  EXPECT_EQ(l1.access_load(line(3), 3), L1Cache::LoadResult::kMissNew);
}

TEST(L1Cache, StoreIsWriteThroughNoAllocate) {
  L1Cache l1(l1_cfg(), 0, 1);
  EXPECT_FALSE(l1.access_store(line(9)));        // miss: no allocation
  EXPECT_EQ(l1.access_load(line(9), 1), L1Cache::LoadResult::kMissNew);
  l1.on_fill(line(9));
  EXPECT_TRUE(l1.access_store(line(9)));         // hit: line updated
  // Store hits never dirty the L1 (write-through): nothing to verify via
  // eviction since L1 fills are always clean; covered by on_fill path.
}

TEST(L1Cache, CountersAccumulate) {
  L1Cache l1(l1_cfg(), 0, 1);
  l1.access_load(line(1), 1);
  l1.on_fill(line(1));
  l1.access_load(line(1), 2);
  EXPECT_EQ(l1.counters().load_misses, 1u);
  EXPECT_EQ(l1.counters().load_hits, 1u);
  EXPECT_EQ(l1.counters().fills, 1u);
  const StatSet s = l1.stats();
  EXPECT_EQ(s.get("l1.load_hits"), 1u);
}

}  // namespace
}  // namespace llamcat
