// Unit tests: CAT speculation structures (hit_buffer, sent_reqs) and the
// arbitration policies (FCFS / B / MA / BMA), paper §4.1/§4.3, plus a
// differential check of the incremental MA/BMA pick against the full scan.
#include <gtest/gtest.h>

#include <vector>

#include "cache/mshr.hpp"
#include "common/rng.hpp"
#include "core/arbitration.hpp"
#include "core/speculation.hpp"

namespace llamcat {
namespace {

Addr line(std::uint64_t i) { return i * kLineBytes; }

TEST(HitBuffer, FifoEviction) {
  HitBuffer hb(2);
  hb.record_hit(line(1));
  hb.record_hit(line(2));
  EXPECT_TRUE(hb.contains(line(1)));
  hb.record_hit(line(3));  // evicts 1
  EXPECT_FALSE(hb.contains(line(1)));
  EXPECT_TRUE(hb.contains(line(2)));
  EXPECT_TRUE(hb.contains(line(3)));
}

TEST(HitBuffer, DuplicatesCounted) {
  HitBuffer hb(3);
  hb.record_hit(line(1));
  hb.record_hit(line(1));
  hb.record_hit(line(2));
  hb.record_hit(line(9));  // evicts one copy of 1
  EXPECT_TRUE(hb.contains(line(1)));
  hb.record_hit(line(10));  // evicts the second copy
  EXPECT_FALSE(hb.contains(line(1)));
}

TEST(SentReqs, ExpiryAfterLifetime) {
  SentReqs sr(16, 8);  // lifetime = hit(3) + mshr(5)
  sr.push(line(1), /*spec_hit=*/false, 100);
  EXPECT_TRUE(sr.contains_mshr_bound(line(1)));
  sr.expire(107);
  EXPECT_TRUE(sr.contains_mshr_bound(line(1)));
  sr.expire(108);  // 100 + 8
  EXPECT_FALSE(sr.contains_mshr_bound(line(1)));
  EXPECT_EQ(sr.size(), 0u);
}

TEST(SentReqs, SpecHitBitMasks) {
  SentReqs sr(16, 8);
  // Speculated cache hits are masked out of the MSHR estimate (Fig 5).
  sr.push(line(1), /*spec_hit=*/true, 0);
  EXPECT_FALSE(sr.contains_mshr_bound(line(1)));
  sr.push(line(1), /*spec_hit=*/false, 1);
  EXPECT_TRUE(sr.contains_mshr_bound(line(1)));
}

// ----------------------------------------------------------- arbiter ----

ArbConfig arb_cfg(ArbPolicy p) {
  ArbConfig cfg;
  cfg.policy = p;
  return cfg;
}

QueuedRequest req(Addr a, CoreId core, std::uint64_t seq) {
  QueuedRequest q;
  q.req.line_addr = a;
  q.req.core = core;
  q.req.seq = seq;
  return q;
}

TEST(Arbiter, ClassifyUsesAllThreeStructures) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kMa), 4, 8);
  Mshr mshr(6, 8);
  // Nothing known: miss.
  EXPECT_EQ(arb.classify(line(1), mshr), RequestArbiter::SpecClass::kMiss);
  // In hit_buffer: cache hit.
  arb.on_hit_determined(line(1));
  EXPECT_EQ(arb.classify(line(1), mshr),
            RequestArbiter::SpecClass::kCacheHit);
  // In the live MSHR: MSHR hit.
  mshr.add(line(2), {0, 0, false}, 0);
  EXPECT_EQ(arb.classify(line(2), mshr),
            RequestArbiter::SpecClass::kMshrHit);
  // Recently selected (sent_reqs, spec_hit=0): MSHR hit even though the
  // real MSHR has not seen it yet.
  MemRequest r;
  r.line_addr = line(3);
  r.core = 0;
  arb.on_selected(r, RequestArbiter::SpecClass::kMiss, 10);
  EXPECT_EQ(arb.classify(line(3), mshr),
            RequestArbiter::SpecClass::kMshrHit);
  // ...and the prediction expires once the MSHR would be up to date.
  arb.on_cycle(18);
  EXPECT_EQ(arb.classify(line(3), mshr), RequestArbiter::SpecClass::kMiss);
}

TEST(Arbiter, FcfsTakesHead) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kFcfs), 4, 8);
  Mshr mshr(6, 8);
  std::vector<QueuedRequest> q{req(line(5), 2, 0), req(line(6), 1, 1)};
  const auto c = arb.select(q, mshr);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->index, 0u);
}

TEST(Arbiter, BalancedPicksLeastServedCore) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kBalanced), 4, 8);
  Mshr mshr(6, 8);
  // Serve core 0 twice so its progress counter is highest.
  MemRequest r;
  r.core = 0;
  arb.on_selected(r, RequestArbiter::SpecClass::kMiss, 0);
  arb.on_selected(r, RequestArbiter::SpecClass::kMiss, 1);
  std::vector<QueuedRequest> q{req(line(1), 0, 0), req(line(2), 3, 1)};
  const auto c = arb.select(q, mshr);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(q[c->index].req.core, 3u);
  // Ties resolve to the earliest arrival.
  std::vector<QueuedRequest> q2{req(line(1), 1, 0), req(line(2), 2, 1)};
  EXPECT_EQ(arb.select(q2, mshr)->index, 0u);
}

TEST(Arbiter, MaPrioritizesHitThenMshrHitThenMiss) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kMa), 4, 8);
  Mshr mshr(6, 8);
  mshr.add(line(2), {0, 0, false}, 0);
  arb.on_hit_determined(line(3));
  std::vector<QueuedRequest> q{req(line(1), 0, 0),   // miss
                               req(line(2), 1, 1),   // MSHR hit
                               req(line(3), 2, 2)};  // cache hit
  const auto c = arb.select(q, mshr);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->index, 2u);
  EXPECT_EQ(c->spec, RequestArbiter::SpecClass::kCacheHit);
  // Remove the cache hit: the MSHR hit wins next.
  std::vector<QueuedRequest> q2{req(line(1), 0, 0), req(line(2), 1, 1)};
  EXPECT_EQ(arb.select(q2, mshr)->index, 1u);
}

TEST(Arbiter, MaTieBreaksFcfsButBmaUsesProgress) {
  Mshr mshr(6, 8);
  MemRequest served;
  served.core = 0;
  // Two requests of the same class (miss) from cores 0 and 1; core 0 has
  // been served more.
  std::vector<QueuedRequest> q{req(line(1), 0, 0), req(line(2), 1, 1)};

  RequestArbiter ma(arb_cfg(ArbPolicy::kMa), 4, 8);
  ma.on_selected(served, RequestArbiter::SpecClass::kMiss, 0);
  EXPECT_EQ(ma.select(q, mshr)->index, 0u);  // FCFS tie-break

  RequestArbiter bma(arb_cfg(ArbPolicy::kBma), 4, 8);
  bma.on_selected(served, RequestArbiter::SpecClass::kMiss, 0);
  EXPECT_EQ(bma.select(q, mshr)->index, 1u);  // balanced tie-break
}

TEST(Arbiter, ProgressCountersTrackAndReset) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kBma), 4, 8);
  MemRequest r;
  r.core = 2;
  arb.on_selected(r, RequestArbiter::SpecClass::kMiss, 0);
  arb.on_selected(r, RequestArbiter::SpecClass::kMiss, 1);
  EXPECT_EQ(arb.progress()[2], 2u);
  arb.reset_progress();
  EXPECT_EQ(arb.progress()[2], 0u);
}

TEST(Arbiter, EmptyQueueYieldsNothing) {
  RequestArbiter arb(arb_cfg(ArbPolicy::kBma), 4, 8);
  Mshr mshr(6, 8);
  std::vector<QueuedRequest> q;
  EXPECT_FALSE(arb.select(q, mshr).has_value());
}

// Property: for every policy, select() returns a valid index and never
// throws over randomized queues.
class ArbiterPolicyProp : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(ArbiterPolicyProp, AlwaysValidIndex) {
  RequestArbiter arb(arb_cfg(GetParam()), 8, 8);
  Mshr mshr(6, 8);
  mshr.add(line(100), {0, 0, false}, 0);
  arb.on_hit_determined(line(200));
  for (int n = 1; n <= 12; ++n) {
    std::vector<QueuedRequest> q;
    for (int i = 0; i < n; ++i) {
      q.push_back(req(line(100 + 50 * (i % 3)), static_cast<CoreId>(i % 8),
                      static_cast<std::uint64_t>(i)));
    }
    const auto c = arb.select(q, mshr);
    ASSERT_TRUE(c.has_value());
    EXPECT_LT(c->index, q.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ArbiterPolicyProp,
                         ::testing::Values(ArbPolicy::kFcfs,
                                           ArbPolicy::kBalanced,
                                           ArbPolicy::kMa, ArbPolicy::kBma,
                                           ArbPolicy::kCobrra));

// ------------------------------------------- incremental classes ----

constexpr std::uint32_t kDiffCores = 4;
constexpr std::uint32_t kDiffLifetime = 8;

/// A seeded random stream of every event that moves a queued request's
/// class or the queue itself, applied to an arbiter the way LlcSlice
/// applies it. The line universe is small so that events collide.
class EventStream {
 public:
  EventStream(RequestArbiter& arb, std::uint64_t seed)
      : arb_(arb), rng_(seed) {}

  /// Applies one random event; returns true when it was a selection.
  bool step() {
    switch (rng_.below(7)) {
      case 0:
        if (queue_.size() < 12) {
          MemRequest r;
          r.line_addr = random_line();
          r.core = static_cast<CoreId>(rng_.below(kDiffCores));
          arb_.enqueue(queue_, r, now_, mshr_);
        }
        return false;
      case 1:
        if (!queue_.empty()) {
          queue_.erase(queue_.begin() +
                       static_cast<std::ptrdiff_t>(rng_.below(queue_.size())));
        }
        return false;
      case 2:
        arb_.on_hit_determined(random_line());
        return false;
      case 3: {
        const Addr a = random_line();
        if (mshr_.find(a) == nullptr && mshr_.entry_available()) {
          mshr_.add(a, {0, 0, false}, now_);
          arb_.on_mshr_changed(a);
        }
        return false;
      }
      case 4:
        if (mshr_.occupancy() != 0) {
          const Addr a = mshr_.entries()[rng_.below(mshr_.occupancy())].line_addr;
          mshr_.release(a, targets_);
          arb_.on_mshr_changed(a);
        }
        return false;
      case 5: {
        // One selection per cycle, as in the slice (sent_reqs relies on it).
        tick(1);
        const auto c = arb_.pick(queue_, mshr_, nullptr);
        if (!c) return false;
        const MemRequest r = queue_[c->index].req;
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(c->index));
        arb_.on_selected(r, c->spec, now_);
        return true;
      }
      default:
        tick(1 + rng_.below(4));
        return false;
    }
  }

  std::vector<QueuedRequest>& queue() { return queue_; }
  const Mshr& mshr() const { return mshr_; }

 private:
  Addr random_line() { return line(rng_.below(12)); }
  void tick(std::uint64_t cycles) {
    now_ += cycles;
    arb_.on_cycle(now_);
  }

  RequestArbiter& arb_;
  Xoshiro256 rng_;
  Mshr mshr_{4, 4};
  std::vector<QueuedRequest> queue_;
  std::vector<MshrTarget> targets_;
  Cycle now_ = 0;
};

ArbConfig diff_cfg(ArbPolicy p) {
  ArbConfig cfg = arb_cfg(p);
  cfg.hit_buffer_depth = 4;  // small enough that hits evict lines
  return cfg;
}

void expect_pick_matches_select(RequestArbiter& arb, EventStream& ev) {
  const auto ref = arb.select(ev.queue(), ev.mshr());
  const auto inc = arb.pick(ev.queue(), ev.mshr(), nullptr);
  ASSERT_EQ(ref.has_value(), inc.has_value());
  if (!ref) return;
  ASSERT_EQ(inc->index, ref->index);
  ASSERT_EQ(inc->spec, ref->spec);
}

class IncrementalPick : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(IncrementalPick, MatchesFullScanAfterEveryEvent) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RequestArbiter arb(diff_cfg(GetParam()), kDiffCores, kDiffLifetime);
    EventStream ev(arb, seed);
    for (int i = 0; i < 500; ++i) {
      ev.step();
      expect_pick_matches_select(arb, ev);
      if (HasFatalFailure()) FAIL() << "seed " << seed << ", event " << i;
    }
  }
}

// Checking only at selections lets dirty lines pile up between picks,
// past the individually kept ones.
TEST_P(IncrementalPick, MatchesFullScanWhenDirtyLinesAccumulate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RequestArbiter arb(diff_cfg(GetParam()), kDiffCores, kDiffLifetime);
    EventStream ev(arb, seed);
    for (int i = 0; i < 2000; ++i) {
      if (ev.step()) expect_pick_matches_select(arb, ev);
      if (HasFatalFailure()) FAIL() << "seed " << seed << ", event " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaAndBma, IncrementalPick,
                         ::testing::Values(ArbPolicy::kMa, ArbPolicy::kBma));

// The policies that never read the speculation structures keep none of
// them, and still pick exactly by their rule.
class NonSpeculatingPick : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(NonSpeculatingPick, PicksUnchangedWithUpkeepOff) {
  const ArbPolicy policy = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RequestArbiter arb(diff_cfg(policy), kDiffCores, kDiffLifetime,
                       /*seed=*/seed);
    Xoshiro256 ref_rng(seed);  // kRandom draws the same sequence
    std::vector<std::uint64_t> progress(kDiffCores, 0);
    std::uint32_t last_core = kInvalidCore;
    EventStream ev(arb, seed + 100);
    for (int i = 0; i < 500; ++i) {
      const std::vector<QueuedRequest> before = ev.queue();
      const std::vector<std::uint64_t> progress_before = arb.progress();
      if (!ev.step()) continue;
      // A selection took exactly one request; find the rule's choice.
      std::size_t want = 0;
      if (policy == ArbPolicy::kBalanced) {
        for (std::size_t k = 1; k < before.size(); ++k) {
          if (progress[before[k].req.core] < progress[before[want].req.core])
            want = k;
        }
      } else if (policy == ArbPolicy::kMrpb) {
        for (std::size_t k = 0; k < before.size(); ++k) {
          if (before[k].req.core == last_core) {
            want = k;
            break;
          }
        }
      } else if (policy == ArbPolicy::kRandom) {
        want = static_cast<std::size_t>(ref_rng.below(before.size()));
      }
      ASSERT_EQ(ev.queue().size() + 1, before.size());
      // The taken request is the one whose core's progress moved.
      const CoreId core = before[want].req.core;
      ASSERT_EQ(arb.progress()[core], progress_before[core] + 1)
          << "seed " << seed << ", event " << i;
      for (std::size_t k = 0; k < ev.queue().size(); ++k) {
        ASSERT_EQ(ev.queue()[k].req.line_addr,
                  before[k < want ? k : k + 1].req.line_addr);
      }
      ++progress[core];
      last_core = core;
    }
    EXPECT_EQ(arb.hit_buffer().size(), 0u);
    EXPECT_EQ(arb.sent_reqs().size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FcfsFamily, NonSpeculatingPick,
                         ::testing::Values(ArbPolicy::kFcfs,
                                           ArbPolicy::kBalanced,
                                           ArbPolicy::kCobrra,
                                           ArbPolicy::kMrpb,
                                           ArbPolicy::kRandom));

}  // namespace
}  // namespace llamcat
