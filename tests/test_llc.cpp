// Unit tests: LLC slice pipeline - hit path, miss/MSHR/DRAM path, merge,
// stall-on-exhaustion semantics, request-response arbitration, SliceMap.
#include <gtest/gtest.h>

#include <set>

#include "dram/dram_system.hpp"
#include "llc/llc_slice.hpp"

namespace llamcat {
namespace {

struct Rig {
  SimConfig cfg = SimConfig::table5();
  std::unique_ptr<DramSystem> dram;
  std::unique_ptr<LlcSlice> slice;
  Cycle now = 0;

  explicit Rig(std::uint32_t mshr_entries = 6, std::uint32_t mshr_targets = 8,
               RespArbPolicy resp_arb = RespArbPolicy::kResponseFirst) {
    cfg.llc.num_slices = 1;  // single slice: every address belongs to it
    cfg.llc.mshr_entries = mshr_entries;
    cfg.llc.mshr_targets = mshr_targets;
    cfg.llc.resp_arb = resp_arb;
    dram = std::make_unique<DramSystem>(cfg.dram, cfg.core_hz);
    slice = std::make_unique<LlcSlice>(cfg.llc, cfg.arb, 0, cfg.core.num_cores,
                                       1);
    dram->on_read_complete = [this](const DramCompletion& d) {
      slice->on_dram_fill(d.line_addr);
    };
  }

  void tick(std::uint32_t n = 1) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ++now;
      slice->tick(now, *dram);
      dram->advance(1);
    }
  }

  MemRequest load(Addr a, CoreId core = 0) {
    MemRequest r;
    r.line_addr = a;
    r.core = core;
    r.type = AccessType::kLoad;
    return r;
  }
  MemRequest store(Addr a, CoreId core = 0) {
    MemRequest r = load(a, core);
    r.type = AccessType::kStore;
    r.req_id = kStoreReqId;
    return r;
  }

  /// Runs until n responses have drained or the guard trips.
  std::vector<MemResponse> run_for_responses(std::size_t n,
                                             std::uint32_t guard = 20000) {
    std::vector<MemResponse> out;
    while (out.size() < n && guard-- > 0) {
      tick();
      slice->drain_responses(now, out);
    }
    return out;
  }
};

TEST(SliceMap, PartitionsAllSetsExactlyOnce) {
  LlcConfig cfg = SimConfig::table5().llc;
  const SliceMap map(cfg);
  // Every line within one "period" of sets maps to exactly one slice and
  // local sets never collide for distinct global sets of the same slice.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t s = 0; s < map.total_sets(); ++s) {
    const Addr a = s * kLineBytes;
    const std::uint32_t slice = map.slice_of(a);
    const std::uint32_t local = map.local_set_of(a);
    EXPECT_LT(slice, cfg.num_slices);
    EXPECT_LT(local, map.sets_per_slice());
    EXPECT_TRUE(seen.insert({slice, local}).second)
        << "collision at global set " << s;
  }
  EXPECT_EQ(seen.size(), map.total_sets());
}

TEST(SliceMap, SliceBitsDecoupledFromChannelBits) {
  const SimConfig cfg = SimConfig::table5();
  const SliceMap map(cfg.llc);
  // Consecutive lines hit the same slice for runs of 8 (shift=3) while
  // DRAM channels rotate every line, so a 4-line vector doesn't serialize
  // on one channel-slice pairing.
  EXPECT_EQ(map.slice_of(0 * kLineBytes), map.slice_of(1 * kLineBytes));
  EXPECT_EQ(map.slice_of(0 * kLineBytes), map.slice_of(7 * kLineBytes));
  EXPECT_NE(map.slice_of(0 * kLineBytes), map.slice_of(8 * kLineBytes));
}

TEST(LlcSlice, MissGoesToDramAndBack) {
  Rig rig;
  rig.slice->push_request(rig.load(0x1000, 3), rig.now);
  const auto resp = rig.run_for_responses(1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].core, 3u);
  EXPECT_EQ(resp[0].line_addr, 0x1000u);
  EXPECT_EQ(rig.slice->counters().misses, 1u);
  EXPECT_EQ(rig.slice->counters().mshr_allocs, 1u);
  // The fill was installed through the response queue.
  std::uint32_t guard = 1000;
  while (!rig.slice->drained() && guard--) rig.tick();
  EXPECT_TRUE(rig.slice->drained());
  EXPECT_EQ(rig.slice->counters().fills, 1u);
  EXPECT_EQ(rig.slice->counters().responses_served, 1u);
}

TEST(LlcSlice, HitAfterFillHasDataLatency) {
  Rig rig;
  rig.slice->push_request(rig.load(0x1000), rig.now);
  rig.run_for_responses(1);
  std::uint32_t guard = 1000;
  while (!rig.slice->drained() && guard--) rig.tick();
  // Second access: hit.
  const Cycle start = rig.now;
  rig.slice->push_request(rig.load(0x1000, 1), rig.now);
  const auto resp = rig.run_for_responses(1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(rig.slice->counters().hits, 1u);
  // hit_latency (3) + data_latency (25) plus the serve cycle.
  const Cycle latency = rig.now - start;
  EXPECT_GE(latency, 3u + 25u);
  EXPECT_LE(latency, 3u + 25u + 3u);
}

TEST(LlcSlice, MshrMergesConcurrentMisses) {
  Rig rig;
  rig.slice->push_request(rig.load(0x1000, 0), rig.now);
  rig.tick(10);  // let the first reach the MSHR
  rig.slice->push_request(rig.load(0x1000, 1), rig.now);
  rig.slice->push_request(rig.load(0x1000, 2), rig.now);
  const auto resp = rig.run_for_responses(3);
  ASSERT_EQ(resp.size(), 3u);
  EXPECT_EQ(rig.slice->counters().mshr_allocs, 1u);  // one DRAM fetch
  EXPECT_EQ(rig.slice->counters().mshr_hits, 2u);    // two merges
  std::set<CoreId> cores;
  for (const auto& r : resp) cores.insert(r.core);
  EXPECT_EQ(cores.size(), 3u);
}

TEST(LlcSlice, EntryExhaustionStallsPipeline) {
  Rig rig(/*mshr_entries=*/2);
  // Three distinct misses: the third cannot allocate while the first two
  // are outstanding.
  rig.slice->push_request(rig.load(0x10000), rig.now);
  rig.slice->push_request(rig.load(0x20000), rig.now);
  rig.slice->push_request(rig.load(0x30000), rig.now);
  rig.tick(30);  // enough for all lookups, far less than DRAM latency
  EXPECT_EQ(rig.slice->counters().mshr_allocs, 2u);
  EXPECT_GT(rig.slice->counters().stall_entry, 0u);
  EXPECT_GT(rig.slice->stall_cycles(), 0u);
  // Eventually the fills free entries and the third proceeds.
  const auto resp = rig.run_for_responses(3);
  EXPECT_EQ(resp.size(), 3u);
  EXPECT_EQ(rig.slice->counters().mshr_allocs, 3u);
}

TEST(LlcSlice, TargetExhaustionStalls) {
  Rig rig(/*mshr_entries=*/6, /*mshr_targets=*/2);
  for (CoreId c = 0; c < 4; ++c) {
    rig.slice->push_request(rig.load(0x1000, c), rig.now);
  }
  rig.tick(40);
  EXPECT_GT(rig.slice->counters().stall_target, 0u);
  const auto resp = rig.run_for_responses(4);
  EXPECT_EQ(resp.size(), 4u);
  // Two fetches: the first serves 2 targets, the overflow re-fetches.
  EXPECT_GE(rig.slice->counters().mshr_allocs, 2u);
}

TEST(LlcSlice, StallBlocksCacheHitsBehindMiss) {
  Rig rig(/*mshr_entries=*/1);
  // Warm a line.
  rig.slice->push_request(rig.load(0x40), rig.now);
  rig.run_for_responses(1);
  std::uint32_t guard = 2000;
  while (!rig.slice->drained() && guard--) rig.tick();
  // Two distinct misses exhaust the single entry. Wait for the stall to
  // establish, then a request that would hit cannot be processed: the
  // whole pipeline is frozen (paper: "preventing even cache hits").
  rig.slice->push_request(rig.load(0x10000), rig.now);
  rig.slice->push_request(rig.load(0x20000), rig.now);
  std::uint32_t guard2 = 100;
  while (rig.slice->counters().stall_entry == 0 && guard2--) rig.tick();
  ASSERT_GT(rig.slice->counters().stall_entry, 0u);
  rig.slice->push_request(rig.load(0x40, 5), rig.now);  // would be a hit
  rig.tick(40);
  std::vector<MemResponse> out;
  rig.slice->drain_responses(rig.now, out);
  EXPECT_TRUE(out.empty()) << "hit completed during a whole-pipeline stall";
  // After fills return everything completes.
  const auto resp = rig.run_for_responses(3);
  EXPECT_EQ(resp.size(), 3u);
}

TEST(LlcSlice, StoreMissAllocatesAndDirtiesLine) {
  Rig rig;
  rig.slice->push_request(rig.store(0x5000), rig.now);
  std::uint32_t guard = 2000;
  while (!rig.slice->drained() && guard--) rig.tick();
  EXPECT_TRUE(rig.slice->drained());
  EXPECT_EQ(rig.slice->counters().mshr_allocs, 1u);  // write-allocate fetch
  EXPECT_EQ(rig.slice->counters().fills, 1u);
  // No load response was produced for the store.
  std::vector<MemResponse> out;
  rig.slice->drain_responses(rig.now, out);
  EXPECT_TRUE(out.empty());
}

TEST(LlcSlice, DirtyEvictionWritesBack) {
  Rig rig;
  rig.cfg.llc.size_bytes = 1 << 12;  // tiny, but Rig already built; rebuild:
  SimConfig cfg = SimConfig::table5();
  cfg.llc.num_slices = 1;
  cfg.llc.size_bytes = 4096;  // 8 sets x 8 ways
  DramSystem dram(cfg.dram, cfg.core_hz);
  LlcSlice slice(cfg.llc, cfg.arb, 0, cfg.core.num_cores, 1);
  dram.on_read_complete = [&](const DramCompletion& d) {
    slice.on_dram_fill(d.line_addr);
  };
  Cycle now = 0;
  auto tick = [&](std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ++now;
      slice.tick(now, dram);
      dram.advance(1);
    }
  };
  // Dirty one set's worth of lines, then overflow the set.
  const SliceMap map(cfg.llc);
  std::vector<Addr> same_set;
  for (Addr a = 0; same_set.size() < 9; a += kLineBytes) {
    if (map.local_set_of(a) == 0) same_set.push_back(a);
  }
  for (std::size_t i = 0; i < same_set.size(); ++i) {
    MemRequest r;
    r.line_addr = same_set[i];
    r.type = AccessType::kStore;
    r.req_id = kStoreReqId;
    while (!slice.can_accept_request()) tick(1);
    slice.push_request(r, now);
    tick(50);
  }
  std::uint32_t guard = 5000;
  while ((!slice.drained() || !dram.idle()) && guard--) tick(1);
  EXPECT_GE(slice.counters().dirty_evictions, 1u);
  EXPECT_GE(slice.counters().writebacks, 1u);
  EXPECT_GE(dram.stats().get("dram.writes"), 1u);
}

TEST(LlcSlice, RequestFirstArbitrationPrefersRequests) {
  // With request-first arbitration and a non-urgent response queue, queued
  // requests win the port; with response-first, responses win. Observe via
  // the order of counters on a mixed workload.
  for (RespArbPolicy pol :
       {RespArbPolicy::kResponseFirst, RespArbPolicy::kRequestFirst}) {
    Rig rig(6, 8, pol);
    for (int i = 0; i < 6; ++i) {
      rig.slice->push_request(
          rig.load(0x100000 + static_cast<Addr>(i) * 0x10000), rig.now);
    }
    const auto resp = rig.run_for_responses(6);
    EXPECT_EQ(resp.size(), 6u) << to_string(pol);
    std::uint32_t guard = 3000;
    while (!rig.slice->drained() && guard--) rig.tick();
    EXPECT_TRUE(rig.slice->drained()) << to_string(pol);
  }
}

TEST(LlcSlice, RequestQueueBackpressure) {
  Rig rig;
  for (std::uint32_t i = 0; i < rig.cfg.llc.req_q_size; ++i) {
    ASSERT_TRUE(rig.slice->can_accept_request());
    rig.slice->push_request(
        rig.load(0x100000 + static_cast<Addr>(i) * 0x10000), rig.now);
  }
  EXPECT_FALSE(rig.slice->can_accept_request());
  rig.tick(2);
  EXPECT_TRUE(rig.slice->can_accept_request());  // arbiter drained some
}

}  // namespace
}  // namespace llamcat
