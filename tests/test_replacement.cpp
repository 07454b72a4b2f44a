// Replacement/insertion policy tests: SRRIP and FIFO semantics,
// cross-policy invariants swept over the full (replacement x insertion)
// matrix with TEST_P, and the compact CacheArray layout checked against a
// 64-bit-stamp reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <set>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/rng.hpp"

namespace llamcat {
namespace {

Addr line(std::uint64_t i) { return i * kLineBytes; }

// ---------------------------------------------------------------- SRRIP --

TEST(Srrip, InsertionRrpvFollowsInsertPolicy) {
  CacheArray mru(1, 4, ReplPolicy::kSrrip, InsertPolicy::kMru);
  mru.fill(0, line(1), false);
  EXPECT_EQ(mru.rrpv_of(0, line(1)), 2u);  // "long" re-reference

  CacheArray streaming(1, 4, ReplPolicy::kSrrip, InsertPolicy::kStreaming);
  streaming.fill(0, line(1), false);
  EXPECT_EQ(streaming.rrpv_of(0, line(1)), 3u);  // "distant"
}

TEST(Srrip, HitPromotesToNearImmediate) {
  CacheArray a(1, 4, ReplPolicy::kSrrip, InsertPolicy::kMru);
  a.fill(0, line(1), false);
  EXPECT_TRUE(a.touch(0, line(1)));
  EXPECT_EQ(a.rrpv_of(0, line(1)), 0u);
}

TEST(Srrip, EvictsDistantLineFirst) {
  CacheArray a(1, 2, ReplPolicy::kSrrip, InsertPolicy::kStreaming);
  a.fill(0, line(1), false);  // rrpv 3
  a.fill(0, line(2), false);  // rrpv 3
  a.touch(0, line(1));        // rrpv 0
  const auto ev = a.fill(0, line(3), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(2));
}

TEST(Srrip, AgesWhenNoDistantLine) {
  CacheArray a(1, 2, ReplPolicy::kSrrip, InsertPolicy::kMru);
  a.fill(0, line(1), false);
  a.fill(0, line(2), false);
  a.touch(0, line(1));
  a.touch(0, line(2));  // both rrpv 0: eviction must age them to 3 first
  const auto ev = a.fill(0, line(3), false);
  ASSERT_TRUE(ev.has_value());
  // One of the two was evicted; the survivor was aged to rrpv 3 and the
  // newly inserted line carries insertion rrpv 2.
  const Addr survivor = ev->line_addr == line(1) ? line(2) : line(1);
  EXPECT_EQ(a.rrpv_of(0, survivor), 3u);
  EXPECT_EQ(a.rrpv_of(0, line(3)), 2u);
}

/// The motivating SRRIP property: with distant insertion (SRRIP-D), a
/// re-referenced working set survives a one-shot streaming scan that
/// thrashes LRU with MRU insertion.
TEST(Srrip, ScanResistance) {
  constexpr std::uint32_t kAssoc = 8;
  CacheArray srrip(1, kAssoc, ReplPolicy::kSrrip, InsertPolicy::kStreaming);
  CacheArray lru(1, kAssoc, ReplPolicy::kLru, InsertPolicy::kMru);

  // Hot set: 4 lines, touched repeatedly.
  for (std::uint64_t i = 0; i < 4; ++i) {
    srrip.fill(0, line(i), false);
    lru.fill(0, line(i), false);
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      srrip.touch(0, line(i));
      lru.touch(0, line(i));
    }
  }
  // Scan: 16 single-use lines.
  for (std::uint64_t i = 100; i < 116; ++i) {
    if (!srrip.probe(0, line(i))) srrip.fill(0, line(i), false);
    if (!lru.probe(0, line(i))) lru.fill(0, line(i), false);
  }
  int srrip_survivors = 0;
  int lru_survivors = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    srrip_survivors += srrip.probe(0, line(i)) ? 1 : 0;
    lru_survivors += lru.probe(0, line(i)) ? 1 : 0;
  }
  EXPECT_EQ(lru_survivors, 0) << "LRU should thrash under the scan";
  EXPECT_GE(srrip_survivors, 2) << "SRRIP should keep most of the hot set";
}

// ----------------------------------------------------------------- FIFO --

TEST(Fifo, EvictsInInsertionOrderDespiteTouches) {
  CacheArray a(1, 3, ReplPolicy::kFifo, InsertPolicy::kMru);
  a.fill(0, line(1), false);
  a.fill(0, line(2), false);
  a.fill(0, line(3), false);
  // Touch the oldest repeatedly; FIFO must still evict it first.
  for (int i = 0; i < 10; ++i) a.touch(0, line(1));
  auto ev = a.fill(0, line(4), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(1));
  ev = a.fill(0, line(5), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(2));
}

TEST(Fifo, InsertionPolicyIgnored) {
  CacheArray a(1, 2, ReplPolicy::kFifo, InsertPolicy::kStreaming);
  a.fill(0, line(1), false);
  a.fill(0, line(2), false);
  // Under streaming-LRU, line(2) (stamp 0) would be the victim; FIFO must
  // evict line(1), the older insertion.
  const auto ev = a.fill(0, line(3), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(1));
}

// ------------------------------------------- cross-policy property sweep --

struct PolicyCase {
  ReplPolicy repl;
  InsertPolicy insert;
};

class ReplacementMatrix : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(ReplacementMatrix, CapacityNeverExceeded) {
  const auto [repl, insert] = GetParam();
  CacheArray a(4, 4, repl, insert, /*seed=*/7);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint32_t set = i % 4;
    if (!a.probe(set, line(i))) a.fill(set, line(i), false);
    EXPECT_LE(a.valid_count(), 16u);
  }
  EXPECT_EQ(a.valid_count(), 16u);
}

TEST_P(ReplacementMatrix, NoEvictionWhileSetHasRoom) {
  const auto [repl, insert] = GetParam();
  CacheArray a(1, 8, repl, insert, /*seed=*/7);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(a.fill(0, line(i), false).has_value())
        << "eviction before the set was full (way " << i << ")";
  }
  EXPECT_TRUE(a.fill(0, line(100), false).has_value());
}

TEST_P(ReplacementMatrix, FilledLineIsProbeable) {
  const auto [repl, insert] = GetParam();
  CacheArray a(2, 4, repl, insert, /*seed=*/7);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint32_t set = i % 2;
    if (!a.probe(set, line(i))) {
      a.fill(set, line(i), false);
      EXPECT_TRUE(a.probe(set, line(i)));
    }
  }
}

TEST_P(ReplacementMatrix, VictimWasResident) {
  const auto [repl, insert] = GetParam();
  CacheArray a(1, 4, repl, insert, /*seed=*/7);
  std::set<Addr> resident;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (a.probe(0, line(i))) continue;
    const auto ev = a.fill(0, line(i), false);
    if (ev) {
      EXPECT_TRUE(resident.count(ev->line_addr) == 1)
          << "evicted a line that was never resident";
      resident.erase(ev->line_addr);
    }
    resident.insert(line(i));
  }
}

TEST_P(ReplacementMatrix, SetContentsMatchFills) {
  const auto [repl, insert] = GetParam();
  CacheArray a(1, 4, repl, insert, /*seed=*/7);
  std::set<Addr> expected;
  for (std::uint64_t i = 0; i < 32; ++i) {
    if (a.probe(0, line(i))) continue;
    const auto ev = a.fill(0, line(i), false);
    if (ev) expected.erase(ev->line_addr);
    expected.insert(line(i));
  }
  const auto contents = a.set_contents(0);
  EXPECT_EQ(std::set<Addr>(contents.begin(), contents.end()), expected);
}

// ------------------------------------------- compact layout differential --

/// The replacement semantics with a 16-byte record and a 64-bit stamp per
/// line, a never-wrapping clock, and tree-PLRU bits for every policy: the
/// reference the 9-byte CacheArray must match call for call.
class ReferenceArray {
 public:
  ReferenceArray(std::uint32_t num_sets, std::uint32_t assoc, ReplPolicy repl,
                 InsertPolicy insert, std::uint64_t seed)
      : assoc_(assoc),
        repl_(repl),
        insert_(insert),
        lines_(static_cast<std::size_t>(num_sets) * assoc),
        plru_(num_sets, 0),
        rng_(seed) {}

  bool probe(std::uint32_t set, Addr a) const { return find(set, a) != assoc_; }

  bool touch(std::uint32_t set, Addr a) {
    const std::uint32_t w = find(set, a);
    if (w == assoc_) return false;
    promote(set, w);
    return true;
  }

  std::optional<CacheArray::Evicted> fill(std::uint32_t set, Addr a,
                                          bool dirty) {
    const std::uint32_t w = victim(set);
    Line& l = line_at(set, w);
    std::optional<CacheArray::Evicted> ev;
    if (l.tag != kNoAddr) ev = CacheArray::Evicted{l.tag, l.dirty};
    l.tag = a;
    l.dirty = dirty;
    if (repl_ == ReplPolicy::kFifo) {
      l.stamp = ++tick_;
    } else if (repl_ == ReplPolicy::kSrrip) {
      l.rrpv = insert_ == InsertPolicy::kMru ? 2 : 3;
    } else if (insert_ == InsertPolicy::kMru) {
      promote(set, w);
    } else {
      l.stamp = 0;
    }
    return ev;
  }

  bool mark_dirty(std::uint32_t set, Addr a) {
    const std::uint32_t w = find(set, a);
    if (w == assoc_) return false;
    line_at(set, w).dirty = true;
    return true;
  }

  bool invalidate(std::uint32_t set, Addr a) {
    const std::uint32_t w = find(set, a);
    if (w == assoc_) return false;
    line_at(set, w) = Line{};
    return true;
  }

  std::uint8_t rrpv_of(std::uint32_t set, Addr a) const {
    const std::uint32_t w = find(set, a);
    return w != assoc_ && repl_ == ReplPolicy::kSrrip ? line_at(set, w).rrpv
                                                      : 0;
  }

  std::vector<Addr> set_contents(std::uint32_t set) const {
    std::vector<Addr> out;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (line_at(set, w).tag != kNoAddr) out.push_back(line_at(set, w).tag);
    }
    return out;
  }

 private:
  struct Line {
    Addr tag = kNoAddr;
    bool dirty = false;
    std::uint8_t rrpv = 0;
    std::uint64_t stamp = 0;
  };

  Line& line_at(std::uint32_t set, std::uint32_t w) {
    return lines_[static_cast<std::size_t>(set) * assoc_ + w];
  }
  const Line& line_at(std::uint32_t set, std::uint32_t w) const {
    return lines_[static_cast<std::size_t>(set) * assoc_ + w];
  }
  std::uint32_t find(std::uint32_t set, Addr a) const {
    std::uint32_t w = 0;
    while (w < assoc_ && line_at(set, w).tag != a) ++w;
    return w;
  }

  void promote(std::uint32_t set, std::uint32_t w) {
    if (repl_ == ReplPolicy::kFifo) return;
    line_at(set, w).stamp = ++tick_;
    line_at(set, w).rrpv = 0;
    // Tree-PLRU: point every node on the way's path away from it.
    std::uint32_t node = 0, lo = 0, hi = assoc_;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (w >= mid) {
        plru_[set] &= ~(1u << node);
        lo = mid;
        node = 2 * node + 2;
      } else {
        plru_[set] |= 1u << node;
        hi = mid;
        node = 2 * node + 1;
      }
    }
  }

  std::uint32_t victim(std::uint32_t set) {
    const std::uint32_t free_way = find(set, kNoAddr);
    if (free_way != assoc_) return free_way;
    switch (repl_) {
      case ReplPolicy::kLru:
      case ReplPolicy::kFifo: {
        std::uint32_t v = 0;
        for (std::uint32_t w = 1; w < assoc_; ++w) {
          if (line_at(set, w).stamp < line_at(set, v).stamp) v = w;
        }
        return v;
      }
      case ReplPolicy::kTreePlru: {
        std::uint32_t node = 0, lo = 0, hi = assoc_;
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if ((plru_[set] >> node) & 1u) {
            lo = mid;
            node = 2 * node + 2;
          } else {
            hi = mid;
            node = 2 * node + 1;
          }
        }
        return lo;
      }
      case ReplPolicy::kRandom:
        return static_cast<std::uint32_t>(rng_.below(assoc_));
      case ReplPolicy::kSrrip:
        for (;;) {
          for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (line_at(set, w).rrpv == 3) return w;
          }
          for (std::uint32_t w = 0; w < assoc_; ++w) ++line_at(set, w).rrpv;
        }
    }
    return 0;
  }

  std::uint32_t assoc_;
  ReplPolicy repl_;
  InsertPolicy insert_;
  std::vector<Line> lines_;
  std::vector<std::uint32_t> plru_;
  std::uint64_t tick_ = 0;
  Xoshiro256 rng_;
};

/// One seeded stream of probe/touch/fill/mark_dirty/invalidate calls into
/// both arrays. The compact array's 7-bit set clocks wrap many times over
/// the stream; the reference never wraps.
TEST_P(ReplacementMatrix, MatchesReferenceModel) {
  const auto [repl, insert] = GetParam();
  constexpr std::uint32_t kSets = 4;
  constexpr std::uint32_t kAssoc = 8;
  constexpr std::uint64_t kLinesPerSet = 20;
  const bool stamped = repl == ReplPolicy::kLru || repl == ReplPolicy::kFifo;
  CacheArray a(kSets, kAssoc, repl, insert, /*seed=*/11);
  ReferenceArray ref(kSets, kAssoc, repl, insert, /*seed=*/11);
  Xoshiro256 rng(2024);
  std::uint64_t evictions = 0;
  std::uint64_t wraps = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto set = static_cast<std::uint32_t>(rng.below(kSets));
    const std::uint8_t clock_before = stamped ? a.stamp_clock(set) : 0;
    const Addr addr = line(set + kSets * rng.below(kLinesPerSet));
    const std::uint64_t op = rng.below(100);
    if (op < 40) {
      ASSERT_EQ(a.touch(set, addr), ref.touch(set, addr)) << step;
    } else if (op < 75) {
      ASSERT_EQ(a.probe(set, addr), ref.probe(set, addr)) << step;
      if (ref.probe(set, addr)) continue;
      const bool dirty = rng.below(2) == 0;
      const auto got = a.fill(set, addr, dirty);
      const auto want = ref.fill(set, addr, dirty);
      ASSERT_EQ(got.has_value(), want.has_value()) << step;
      if (want) {
        ++evictions;
        ASSERT_EQ(got->line_addr, want->line_addr) << step;
        ASSERT_EQ(got->dirty, want->dirty) << step;
      }
    } else if (op < 85) {
      ASSERT_EQ(a.mark_dirty(set, addr), ref.mark_dirty(set, addr)) << step;
    } else if (op < 92) {
      ASSERT_EQ(a.invalidate(set, addr), ref.invalidate(set, addr)) << step;
    } else {
      ASSERT_EQ(a.rrpv_of(set, addr), ref.rrpv_of(set, addr)) << step;
    }
    ASSERT_EQ(a.set_contents(set), ref.set_contents(set)) << step;
    if (stamped && a.stamp_clock(set) < clock_before) ++wraps;
  }
  EXPECT_GT(evictions, 1000u);  // the stream exercised the victim choice
  if (stamped) EXPECT_GT(wraps, 0u) << "no set renormalised";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplacementMatrix,
    ::testing::Values(
        PolicyCase{ReplPolicy::kLru, InsertPolicy::kMru},
        PolicyCase{ReplPolicy::kLru, InsertPolicy::kStreaming},
        PolicyCase{ReplPolicy::kTreePlru, InsertPolicy::kMru},
        PolicyCase{ReplPolicy::kTreePlru, InsertPolicy::kStreaming},
        PolicyCase{ReplPolicy::kRandom, InsertPolicy::kMru},
        PolicyCase{ReplPolicy::kRandom, InsertPolicy::kStreaming},
        PolicyCase{ReplPolicy::kSrrip, InsertPolicy::kMru},
        PolicyCase{ReplPolicy::kSrrip, InsertPolicy::kStreaming},
        PolicyCase{ReplPolicy::kFifo, InsertPolicy::kMru},
        PolicyCase{ReplPolicy::kFifo, InsertPolicy::kStreaming}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      std::string name =
          to_string(info.param.repl) + "_" + to_string(info.param.insert);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(RandomRepl, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    CacheArray a(1, 4, ReplPolicy::kRandom, InsertPolicy::kMru, seed);
    std::vector<Addr> evictions;
    for (std::uint64_t i = 0; i < 32; ++i) {
      if (const auto ev = a.fill(0, line(i), false)) {
        evictions.push_back(ev->line_addr);
      }
    }
    return evictions;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

/// Promotes `line_addr` until the set's clock reads `stamp`. At kMaxStamp,
/// the next stamp taken in the set renormalises it.
void run_clock_to(CacheArray& a, std::uint32_t set, Addr line_addr,
                  std::uint8_t stamp) {
  while (a.stamp_clock(set) < stamp) a.touch(set, line_addr);
}

/// Crossing kMaxStamp renormalises the set to dense ranks; the LRU order
/// of lines stamped before and after the wrap is unchanged, and so are the
/// dirty bits.
TEST(CacheArrayLayout, SetClockWrapKeepsVictimOrder) {
  CacheArray a(1, 4, ReplPolicy::kLru, InsertPolicy::kMru);
  for (std::uint64_t i = 0; i < 4; ++i) a.fill(0, line(i), i == 2);
  run_clock_to(a, 0, line(1), CacheArray::kMaxStamp - 1);
  a.touch(0, line(3));  // MRU before the wrap, in the highest way
  EXPECT_EQ(a.stamp_clock(0), CacheArray::kMaxStamp);
  // Renormalises lines 0, 2, 1, 3 to ranks 1..4, then stamps line 0 past
  // the top rank.
  a.touch(0, line(0));
  EXPECT_EQ(a.stamp_clock(0), 4u + 1u);
  // LRU -> MRU: 2, 1, 3, 0. MRU fills evict in exactly that order.
  std::vector<Addr> victims;
  std::vector<bool> dirty;
  for (std::uint64_t i = 100; i < 104; ++i) {
    const auto ev = a.fill(0, line(i), false);
    ASSERT_TRUE(ev.has_value());
    victims.push_back(ev->line_addr);
    dirty.push_back(ev->dirty);
  }
  EXPECT_EQ(victims, (std::vector<Addr>{line(2), line(1), line(3), line(0)}));
  EXPECT_EQ(dirty, (std::vector<bool>{true, false, false, false}));
}

/// The streaming-insert stamp 0 survives the wrap: a line inserted before
/// it ties with one inserted after it, and the lower way goes first.
TEST(CacheArrayLayout, SetClockWrapKeepsStreamingStampZero) {
  CacheArray a(1, 4, ReplPolicy::kLru, InsertPolicy::kStreaming);
  for (std::uint64_t i = 0; i < 4; ++i) a.fill(0, line(i), false);  // stamp 0
  a.touch(0, line(1));
  run_clock_to(a, 0, line(3), CacheArray::kMaxStamp);
  a.invalidate(0, line(2));
  // Renormalises stamps 0, 1 and 127 to ranks 0, 1 and 2, then stamps
  // line 1 with 3.
  a.touch(0, line(1));
  EXPECT_EQ(a.stamp_clock(0), 3u);
  a.fill(0, line(20), false);  // the free way 2, stamp 0
  const auto ev = a.fill(0, line(21), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, line(0));  // way 0 before way 2
}

/// A set renormalises alone: another set's stamps and clock do not move,
/// so its victim order is the one its own touches made.
TEST(CacheArrayLayout, SetClockWrapLeavesOtherSetsAlone) {
  CacheArray a(2, 4, ReplPolicy::kLru, InsertPolicy::kMru);
  for (std::uint64_t i = 0; i < 4; ++i) a.fill(0, line(i), false);
  for (std::uint64_t i = 10; i < 14; ++i) a.fill(1, line(i), false);
  a.touch(1, line(10));  // set 1, LRU -> MRU: 11, 12, 13, 10
  const std::uint8_t clock1 = a.stamp_clock(1);
  run_clock_to(a, 0, line(0), CacheArray::kMaxStamp);
  a.touch(0, line(1));  // renormalises set 0 only
  EXPECT_LT(a.stamp_clock(0), 8u);
  EXPECT_EQ(a.stamp_clock(1), clock1);
  // Set 1 keeps its order, and its next stamp still tops it.
  a.touch(1, line(11));  // LRU -> MRU: 12, 13, 10, 11
  std::vector<Addr> victims;
  for (std::uint64_t i = 100; i < 104; ++i) {
    const auto ev = a.fill(1, line(i), false);
    ASSERT_TRUE(ev.has_value());
    victims.push_back(ev->line_addr);
  }
  EXPECT_EQ(victims,
            (std::vector<Addr>{line(12), line(13), line(10), line(11)}));
}

/// Footprint guard: a line costs its 8-byte tag and a one-byte replacement
/// word; each set adds at most a one-byte stamp clock, and tree-PLRU 4
/// bytes of tree bits. The 64 bytes cover the padding that aligns the tag
/// array to a cache line.
TEST(CacheArrayLayout, NineBytesPerLine) {
  constexpr std::uint32_t kSets = 1024;
  constexpr std::uint32_t kAssoc = 16;
  constexpr std::size_t kLines = std::size_t{kSets} * kAssoc;
  for (const ReplPolicy repl : {ReplPolicy::kLru, ReplPolicy::kFifo,
                                ReplPolicy::kRandom, ReplPolicy::kSrrip}) {
    const CacheArray a(kSets, kAssoc, repl, InsertPolicy::kMru);
    EXPECT_LE(a.heap_bytes(), 9 * kLines + kSets + 64) << to_string(repl);
  }
  const CacheArray plru(kSets, kAssoc, ReplPolicy::kTreePlru,
                        InsertPolicy::kMru);
  EXPECT_LE(plru.heap_bytes(), 9 * kLines + 5 * kSets + 64);
}

/// The constructor applies the same associativity bounds as the configs.
TEST(CacheArrayLayout, RejectsUnsupportedAssoc) {
  EXPECT_THROW(CacheArray(4, 0, ReplPolicy::kLru, InsertPolicy::kMru),
               std::invalid_argument);
  EXPECT_THROW(CacheArray(4, 65, ReplPolicy::kLru, InsertPolicy::kMru),
               std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(4, 64, ReplPolicy::kLru, InsertPolicy::kMru));
  EXPECT_THROW(CacheArray(4, 33, ReplPolicy::kTreePlru, InsertPolicy::kMru),
               std::invalid_argument);
  EXPECT_NO_THROW(
      CacheArray(4, 32, ReplPolicy::kTreePlru, InsertPolicy::kMru));
}

/// The widest set: 64 distinct LRU stamps renormalise to ranks 1..64 and
/// the clock still has room above them.
TEST(CacheArrayLayout, WidestSetWrapsExactly) {
  constexpr std::uint32_t kAssoc = 64;
  CacheArray a(1, kAssoc, ReplPolicy::kLru, InsertPolicy::kMru);
  ReferenceArray ref(1, kAssoc, ReplPolicy::kLru, InsertPolicy::kMru, 1);
  Xoshiro256 rng(5);
  for (int step = 0; step < 5000; ++step) {
    const Addr addr = line(rng.below(2 * kAssoc));
    ASSERT_EQ(a.touch(0, addr), ref.touch(0, addr)) << step;
    if (ref.probe(0, addr)) continue;
    const auto got = a.fill(0, addr, false);
    const auto want = ref.fill(0, addr, false);
    ASSERT_EQ(got.has_value(), want.has_value()) << step;
    if (want) ASSERT_EQ(got->line_addr, want->line_addr) << step;
  }
}

}  // namespace
}  // namespace llamcat
