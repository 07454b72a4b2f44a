// Differential tests for the per-cycle lookup structures: each one is run
// against a reference model kept here with the plain deque + map semantics
// (FIFO eviction, duplicate counting, expiry at pushed_at + lifetime,
// spec_hit masking, MSHR merge/release order), over long seeded random
// operation streams. AddrTable, the open-addressed table under them, is
// checked against std::unordered_map. The DRAM stream tests pin the
// completion sequence and channel counters of seeded read/write streams,
// stepped and in skip windows, so any change to the controller's scheduling
// or to which ticks it runs shows up as a changed hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "cache/mshr.hpp"
#include "common/addr_table.hpp"
#include "common/rng.hpp"
#include "core/speculation.hpp"
#include "dram/dram_system.hpp"

namespace llamcat {
namespace {

Addr line(std::uint64_t i) { return i * kLineBytes; }

// ------------------------------------------------------------ AddrTable --

/// Runs `ops` seeded insert/find/erase operations on an AddrTable bounded
/// at `bound` keys and on an unordered_map, comparing every answer.
/// `key_of` maps a draw in [0, universe) to a key.
template <typename KeyOf>
void diff_against_map(std::uint32_t bound, std::uint64_t universe,
                      KeyOf key_of, std::uint64_t seed, int ops) {
  AddrTable t(bound);
  std::unordered_map<Addr, std::uint32_t> ref;
  Xoshiro256 rng(seed);
  for (int op = 0; op < ops; ++op) {
    const Addr k = key_of(rng.below(universe));
    const std::uint32_t* got = t.find(k);
    const auto it = ref.find(k);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
    if (got != nullptr) ASSERT_EQ(*got, it->second) << "op " << op;
    switch (rng.below(3)) {
      case 0:  // insert (or overwrite through find)
        if (it != ref.end()) {
          *t.find(k) = static_cast<std::uint32_t>(op);
          it->second = static_cast<std::uint32_t>(op);
        } else if (ref.size() < bound) {
          t.insert(k, static_cast<std::uint32_t>(op));
          ref.emplace(k, static_cast<std::uint32_t>(op));
        }
        break;
      case 1:
        ASSERT_EQ(t.erase(k), ref.erase(k) == 1) << "op " << op;
        break;
      default:
        break;
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  // Everything the map holds is still reachable after the whole history.
  for (const auto& [k, v] : ref) {
    const std::uint32_t* got = t.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
}

TEST(AddrTableDiff, LineAddressesMatchUnorderedMap) {
  // A universe 3x the bound keeps the table near full: long clusters.
  diff_against_map(
      32, 96, [](std::uint64_t i) { return line(i); }, 1, 200000);
  diff_against_map(
      512, 2048, [](std::uint64_t i) { return line(i * 977); }, 2, 200000);
}

TEST(AddrTableDiff, ClustersWrapAroundTheEnd) {
  // Keys homed in the last two slots form clusters that wrap to slot 0,
  // and erases inside them exercise the backward shift across the wrap.
  const AddrTable shape(8);  // 16 slots
  std::vector<Addr> tail_keys;
  for (std::uint64_t i = 0; tail_keys.size() < 24; ++i) {
    if (shape.home(line(i)) >= shape.capacity() - 2) {
      tail_keys.push_back(line(i));
    }
  }
  diff_against_map(
      8, tail_keys.size(),
      [&tail_keys](std::uint64_t i) { return tail_keys[i]; }, 3, 100000);
}

TEST(AddrTableDiff, EraseInsideAClusterKeepsLaterMembersReachable) {
  // Eight keys sharing one home slot make one 8-long cluster; erasing each
  // position in turn must leave every other key findable.
  const AddrTable shape(8);
  std::vector<Addr> keys;
  for (std::uint64_t i = 0; keys.size() < 8; ++i) {
    if (shape.home(line(i)) == 5) keys.push_back(line(i));
  }
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    AddrTable t(8);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      t.insert(keys[i], static_cast<std::uint32_t>(i));
    }
    ASSERT_TRUE(t.erase(keys[victim]));
    EXPECT_FALSE(t.erase(keys[victim]));
    EXPECT_EQ(t.size(), 7u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint32_t* v = t.find(keys[i]);
      if (i == victim) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr) << "victim " << victim << " lost key " << i;
        EXPECT_EQ(*v, i);
      }
    }
  }
}

// ------------------------------------------------------------ HitBuffer --

/// Reference hit_buffer: a deque of recent hits plus a multiset count.
class RefHitBuffer {
 public:
  explicit RefHitBuffer(std::uint32_t depth) : depth_(depth) {}
  void record_hit(Addr a) {
    if (depth_ == 0) return;
    fifo_.push_back(a);
    ++counts_[a];
    if (fifo_.size() > depth_) {
      const Addr old = fifo_.front();
      fifo_.pop_front();
      if (--counts_[old] == 0) counts_.erase(old);
    }
  }
  bool contains(Addr a) const { return counts_.count(a) != 0; }
  std::size_t size() const { return fifo_.size(); }

 private:
  std::uint32_t depth_;
  std::deque<Addr> fifo_;
  std::map<Addr, std::uint32_t> counts_;
};

class HitBufferDiff : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HitBufferDiff, MatchesDequeModel) {
  const std::uint32_t depth = GetParam();
  HitBuffer hb(depth);
  RefHitBuffer ref(depth);
  Xoshiro256 rng(17 + depth);
  // A pool a little larger than the depth keeps duplicates frequent and
  // evictions of still-duplicated lines common.
  const std::uint64_t pool = depth + 5;
  for (int op = 0; op < 40000; ++op) {
    const Addr a = line(rng.below(pool));
    hb.record_hit(a);
    ref.record_hit(a);
    ASSERT_EQ(hb.size(), ref.size()) << "op " << op;
    for (std::uint64_t q = 0; q < pool; ++q) {
      ASSERT_EQ(hb.contains(line(q)), ref.contains(line(q)))
          << "op " << op << " line " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, HitBufferDiff,
                         ::testing::Values(0u, 1u, 2u, 7u, 32u, 33u));

// ------------------------------------------------------------- SentReqs --

/// Reference sent_reqs: deque of (addr, spec_hit, pushed_at) plus a count
/// of spec_hit == 0 entries per address.
class RefSentReqs {
 public:
  RefSentReqs(std::uint32_t depth, std::uint32_t lifetime)
      : depth_(depth), lifetime_(lifetime) {}
  void push(Addr a, bool spec_hit, Cycle now) {
    if (depth_ == 0) return;
    fifo_.push_back(Entry{a, spec_hit, now});
    if (!spec_hit) ++bound_[a];
  }
  void expire(Cycle now) {
    while (!fifo_.empty() && fifo_.front().pushed_at + lifetime_ <= now) {
      const Entry& e = fifo_.front();
      if (!e.spec_hit && --bound_[e.addr] == 0) bound_.erase(e.addr);
      fifo_.pop_front();
    }
  }
  bool contains_mshr_bound(Addr a) const { return bound_.count(a) != 0; }
  std::size_t size() const { return fifo_.size(); }

 private:
  struct Entry {
    Addr addr;
    bool spec_hit;
    Cycle pushed_at;
  };
  std::uint32_t depth_;
  std::uint32_t lifetime_;
  std::deque<Entry> fifo_;
  std::map<Addr, std::uint32_t> bound_;
};

struct SentCase {
  std::uint32_t depth;
  std::uint32_t lifetime;
};

class SentReqsDiff : public ::testing::TestWithParam<SentCase> {};

TEST_P(SentReqsDiff, MatchesDequeModel) {
  const auto [depth, lifetime] = GetParam();
  SentReqs sr(depth, lifetime);
  RefSentReqs ref(depth, lifetime);
  Xoshiro256 rng(depth * 131 + lifetime);
  Cycle now = 0;
  for (int op = 0; op < 40000; ++op) {
    // Slices that freeze skip expiry calls: time sometimes jumps.
    now += rng.below(4) == 0 ? 1 + rng.below(2 * lifetime + 2) : 1;
    sr.expire(now);
    ref.expire(now);
    ASSERT_EQ(sr.size(), ref.size()) << "op " << op;
    for (std::uint64_t q = 0; q < 12; ++q) {
      ASSERT_EQ(sr.contains_mshr_bound(line(q)),
                ref.contains_mshr_bound(line(q)))
          << "op " << op << " line " << q;
    }
    // At most one selection per cycle, as in the slice's tick.
    if (rng.below(4) != 0) {
      const Addr a = line(rng.below(12));
      const bool spec_hit = rng.below(3) == 0;
      sr.push(a, spec_hit, now);
      ref.push(a, spec_hit, now);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SentReqsDiff,
    ::testing::Values(SentCase{0, 8}, SentCase{1, 1}, SentCase{3, 3},
                      SentCase{8, 8}, SentCase{16, 8}, SentCase{12, 12},
                      SentCase{32, 5}));

// ----------------------------------------------------------------- Mshr --

/// Reference MSHR: a vector of entries in allocation order, linear search,
/// order-preserving erase on release.
class RefMshr {
 public:
  RefMshr(std::uint32_t entries, std::uint32_t targets)
      : num_entries_(entries), num_targets_(targets) {}
  struct Entry {
    Addr line_addr;
    std::vector<MshrTarget> targets;
  };
  Mshr::AddResult add(Addr a, const MshrTarget& t) {
    if (Entry* e = find(a)) {
      if (e->targets.size() >= num_targets_)
        return Mshr::AddResult::kNoTargetFree;
      e->targets.push_back(t);
      return Mshr::AddResult::kMerged;
    }
    if (entries_.size() >= num_entries_) return Mshr::AddResult::kNoEntryFree;
    entries_.push_back(Entry{a, {t}});
    return Mshr::AddResult::kNewEntry;
  }
  Entry* find(Addr a) {
    for (auto& e : entries_) {
      if (e.line_addr == a) return &e;
    }
    return nullptr;
  }
  std::vector<MshrTarget> release(Addr a) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [a](const Entry& e) { return e.line_addr == a; });
    std::vector<MshrTarget> out = std::move(it->targets);
    entries_.erase(it);
    return out;
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::uint32_t num_entries_;
  std::uint32_t num_targets_;
  std::vector<Entry> entries_;
};

bool same_target(const MshrTarget& a, const MshrTarget& b) {
  return a.core == b.core && a.req_id == b.req_id && a.is_store == b.is_store;
}

class MshrDiff
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(MshrDiff, MatchesVectorModel) {
  const auto [entries, targets] = GetParam();
  Mshr m(entries, targets);
  RefMshr ref(entries, targets);
  Xoshiro256 rng(entries * 7 + targets);
  std::vector<MshrTarget> released;
  for (int op = 0; op < 30000; ++op) {
    const Addr a = line(rng.below(entries * 2 + 1));
    if (rng.below(3) != 0) {
      const MshrTarget t{static_cast<CoreId>(rng.below(16)),
                         static_cast<std::uint32_t>(op), rng.below(4) == 0};
      ASSERT_EQ(m.add(a, t, static_cast<Cycle>(op)), ref.add(a, t))
          << "op " << op;
    } else if (ref.find(a) != nullptr) {
      m.release(a, released);
      const std::vector<MshrTarget> want = ref.release(a);
      ASSERT_EQ(released.size(), want.size()) << "op " << op;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(same_target(released[i], want[i]))
            << "op " << op << " target " << i;
      }
    }
    ASSERT_EQ(m.occupancy(), ref.entries().size());
    ASSERT_EQ(m.entry_available(), ref.entries().size() < entries);
    std::size_t i = 0;
    for (const Mshr::Entry& e : m.entries()) {
      const RefMshr::Entry& r = ref.entries()[i++];
      ASSERT_EQ(e.line_addr, r.line_addr) << "op " << op << " entry order";
      ASSERT_EQ(e.targets.size(), r.targets.size());
      for (std::size_t k = 0; k < r.targets.size(); ++k) {
        ASSERT_TRUE(same_target(e.targets[k], r.targets[k]));
      }
      ASSERT_EQ(m.find(e.line_addr), &e);
    }
    ASSERT_EQ(m.find(a) != nullptr, ref.find(a) != nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MshrDiff,
                         ::testing::Combine(::testing::Values(1u, 2u, 6u, 16u),
                                            ::testing::Values(1u, 3u, 8u)));

// ------------------------------------------------------- DRAM stream pin --

struct DramDigest {
  std::uint64_t completions = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over (line, tick)
  DramTick last_finish = 0;
  StatSet stats;
};

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

/// Hashes every read completion `d` delivers into `out`.
void record_completions(DramSystem& d, DramDigest& out) {
  d.on_read_complete = [&out](const DramCompletion& c) {
    ++out.completions;
    fnv(out.hash, c.line_addr);
    fnv(out.hash, c.finish_tick);
    out.last_finish = c.finish_tick;
  };
}

/// Drives a DramSystem with a seeded bursty read/write stream: busy phases
/// mix a row-local stream with random lines (row hits, conflicts, tFAW
/// pressure, write drains), quiet phases let the queues drain, and idle
/// stretches pass in one advance.
DramDigest drive_stream(const DramConfig& cfg, std::uint64_t seed,
                        std::uint64_t core_cycles) {
  DramSystem d(cfg, 1.96e9);
  DramDigest out;
  record_completions(d, out);
  Xoshiro256 rng(seed);
  Addr stream = 0;
  std::uint64_t c = 0;
  while (c < core_cycles) {
    const bool busy = (c / 4000) % 3 != 2;
    if (busy && rng.below(3) == 0) {
      Addr a;
      if (rng.below(2) == 0) {
        stream += kLineBytes;
        a = stream;
      } else {
        a = line_align(rng.below(1ull << 26));
      }
      const DramRequest r{a, rng.below(5) == 0, c};
      if (d.can_accept(r)) d.enqueue(r);
    }
    if (!busy && d.idle() && rng.below(8) == 0) {
      const std::uint64_t gap = 1 + rng.below(3000);
      d.advance(gap);
      c += gap;
      continue;
    }
    d.advance(1);
    ++c;
  }
  while (!d.idle()) d.advance(1);
  out.stats = d.stats();
  return out;
}

/// Drives a DramSystem the way System's fast path advances it: after each
/// enqueue the clock moves a seeded multi-cycle window while reads and
/// writes are queued, bounded by next_read_event as System bounds a skip
/// (so no read completes inside a window). Each round also fills channel 0's
/// write queue, lets it drain while it drains writes (a low mark below one
/// entry keeps the hysteresis set until the last write issues), waits, and
/// then lands a burst of reads and writes there between two ticks: the tick
/// after the drain must have cleared the hysteresis, or the burst's writes
/// go ahead of its reads.
DramDigest drive_windows(std::uint64_t seed, std::uint64_t core_cycles) {
  DramConfig cfg;
  cfg.num_channels = 2;
  cfg.read_q_size = 8;
  cfg.write_q_size = 8;
  cfg.write_drain_low = 0.1;
  DramSystem d(cfg, 1.96e9);
  DramDigest out;
  record_completions(d, out);
  Xoshiro256 rng(seed);
  std::uint64_t c = 0;
  const auto window = [&](std::uint64_t n) {
    if (d.has_read_work()) {
      const DramTick gap = d.next_read_event() - d.now();
      n = gap <= 1 ? 1 : std::min<std::uint64_t>(n, gap - 1);
    }
    d.advance(n);
    c += n;
  };
  const auto channel0_line = [&] {
    for (;;) {
      const Addr a = line_align(rng.below(1ull << 24));
      if (d.channel_of(a) == 0) return a;
    }
  };
  while (c < core_cycles) {
    for (int i = 0; i < 200; ++i) {
      const DramRequest r{line_align(rng.below(1ull << 24)),
                          rng.below(3) == 0, c};
      if (d.can_accept(r)) d.enqueue(r);
      window(1 + rng.below(12));
    }
    while (d.can_accept(DramRequest{channel0_line(), true, c})) {
      d.enqueue(DramRequest{channel0_line(), true, c});
    }
    while (!d.idle()) window(1 + rng.below(40));
    window(2 + rng.below(200));
    for (int i = 0; i < 3; ++i) {
      d.enqueue(DramRequest{channel0_line(), false, c});
      d.enqueue(DramRequest{channel0_line(), true, c});
    }
  }
  while (!d.idle()) d.advance(1);
  out.stats = d.stats();
  return out;
}

/// One rank behind small queues, with ACT spacing short enough that tFAW,
/// not tRRD, limits activations (at the defaults 4 x tRRD_S == tFAW).
DramConfig tight_dram() {
  DramConfig cfg;
  cfg.num_channels = 1;
  cfg.ranks_per_channel = 1;
  cfg.read_q_size = 6;
  cfg.write_q_size = 4;
  cfg.tRRD_S = 4;
  cfg.tRRD_L = 4;
  cfg.tFAW = 48;
  return cfg;
}

TEST(DramStreamPin, DefaultChannelsCompletionSequence) {
  const DramDigest d = drive_stream(DramConfig{}, 41, 60000);
  EXPECT_EQ(d.completions, 9363u);
  EXPECT_EQ(d.hash, 2351233150258455924ull);
  EXPECT_EQ(d.last_finish, 46151u);
  EXPECT_EQ(d.stats.get("dram.reads"), 9363u);
  EXPECT_EQ(d.stats.get("dram.writes"), 2329u);
  EXPECT_EQ(d.stats.get("dram.activates"), 6325u);
  EXPECT_EQ(d.stats.get("dram.precharges"), 5979u);
  EXPECT_EQ(d.stats.get("dram.row_hits"), 5562u);
  EXPECT_EQ(d.stats.get("dram.row_misses"), 6130u);
  EXPECT_EQ(d.stats.get("dram.row_conflicts"), 5979u);
  EXPECT_EQ(d.stats.get("dram.refreshes"), 32u);
}

TEST(DramStreamPin, TightChannelCompletionSequence) {
  const DramDigest d = drive_stream(tight_dram(), 7, 60000);
  EXPECT_EQ(d.completions, 648u);
  EXPECT_EQ(d.hash, 14779455147989048281ull);
  EXPECT_EQ(d.last_finish, 45997u);
  EXPECT_EQ(d.stats.get("dram.reads"), 648u);
  EXPECT_EQ(d.stats.get("dram.writes"), 1151u);
  EXPECT_EQ(d.stats.get("dram.activates"), 1301u);
  EXPECT_EQ(d.stats.get("dram.precharges"), 1239u);
  EXPECT_EQ(d.stats.get("dram.row_hits"), 685u);
  EXPECT_EQ(d.stats.get("dram.row_misses"), 1114u);
  EXPECT_EQ(d.stats.get("dram.row_conflicts"), 1239u);
  EXPECT_EQ(d.stats.get("dram.refreshes"), 7u);
}

TEST(DramStreamPin, SkippedWindowsCompletionSequence) {
  const DramDigest d = drive_windows(23, 60000);
  EXPECT_EQ(d.completions, 3432u);
  EXPECT_EQ(d.hash, 12427166726776611801ull);
  EXPECT_EQ(d.last_finish, 49749u);
  EXPECT_EQ(d.stats.get("dram.reads"), 3432u);
  EXPECT_EQ(d.stats.get("dram.writes"), 2735u);
  EXPECT_EQ(d.stats.get("dram.activates"), 6563u);
  EXPECT_EQ(d.stats.get("dram.precharges"), 6400u);
  EXPECT_EQ(d.stats.get("dram.row_hits"), 52u);
  EXPECT_EQ(d.stats.get("dram.row_misses"), 6115u);
  EXPECT_EQ(d.stats.get("dram.row_conflicts"), 6400u);
  EXPECT_EQ(d.stats.get("dram.refreshes"), 14u);
}

}  // namespace
}  // namespace llamcat
