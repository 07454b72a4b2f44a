// Paged KV eviction: private-block bookkeeping of the KV block pool, the
// ServingConfig / AdmissionPolicy extensions (cold-block eviction,
// queued-yield gate, blocked-work preemption pressure), and the continuous
// engine's
// evict-at-preemption / refetch-at-resume path - including the headline
// property that eviction actually frees budget bytes (a budget-blocked
// arrival admits after an eviction where resident preemption would make it
// wait for the long request's finish).
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/kv_block_pool.hpp"
#include "scenario/scenario.hpp"
#include "scenario/serving.hpp"

namespace llamcat {
namespace {

using scenario::AdmissionPolicy;
using scenario::AdmitPolicy;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::KvBlockPool;
using scenario::KvBlockPoolConfig;
using scenario::RequestBatch;
using scenario::RequestStats;
using scenario::ServingConfig;

SimConfig small_config() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 50'000'000;
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

// ---------------------------------------------------------------------------
// Private-block bookkeeping (KvBlockPool with no prefix group)
// ---------------------------------------------------------------------------

TEST(PagedKvBlocksValidate, BlockBytesMustBeLineMultiple) {
  KvBlockPoolConfig ok;
  EXPECT_NO_THROW(ok.validate());
  ok.block_bytes = 4096;
  EXPECT_NO_THROW(ok.validate());

  KvBlockPoolConfig zero;
  zero.block_bytes = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);
  KvBlockPoolConfig odd;
  odd.block_bytes = 100;
  EXPECT_THROW(odd.validate(), std::invalid_argument);
}

TEST(PagedKvBlocks, RefetchCostDefaultsToModeledHostLink) {
  KvBlockPoolConfig cfg;  // 64-byte blocks, 8 B/cycle link
  EXPECT_EQ(cfg.cycles_per_block(), 8u);
  cfg.block_bytes = 4096;
  EXPECT_EQ(cfg.cycles_per_block(), 512u);
  cfg.refetch_cost = 3;  // explicit price wins
  EXPECT_EQ(cfg.cycles_per_block(), 3u);
}

TEST(PagedKvBlocks, EvictsWholeBlocksAndKeepsThePartialTail) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 4096;
  // 10000 bytes = 2 whole blocks + a 1808-byte tail that can never move.
  KvBlockPool pool(cfg, {{10000}});
  EXPECT_EQ(pool.admit(0).charged_bytes, 10000u);
  EXPECT_EQ(pool.releasable_blocks(0), 2u);

  EXPECT_EQ(pool.release(0), 2u * 4096);
  EXPECT_EQ(pool.resume_cost(0), 2u * 4096);
  // Everything swappable is already out: nothing more could move.
  EXPECT_EQ(pool.releasable_blocks(0), 0u);
}

TEST(PagedKvBlocks, RefetchRestoresBlocksAndPricesTheTransfer) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 128;
  cfg.refetch_cost = 5;
  KvBlockPool pool(cfg, {{1024}, {256}});
  (void)pool.admit(0);
  (void)pool.admit(1);
  EXPECT_EQ(pool.release(1), 256u);

  const KvBlockPool::Admission r = pool.resume(1);
  EXPECT_EQ(r.refetch_blocks, 2u);
  EXPECT_EQ(r.refetch_bytes, 256u);
  EXPECT_EQ(r.charged_bytes, 256u);
  EXPECT_EQ(r.refetch_cycles, 10u);  // 2 blocks x 5 cycles
  EXPECT_EQ(pool.resume_cost(1), 0u);

  // Nothing swapped -> nothing to refetch.
  EXPECT_EQ(pool.resume_cost(0), 0u);
}

// ---------------------------------------------------------------------------
// ServingConfig validation of the paging knobs
// ---------------------------------------------------------------------------

TEST(PagedServingConfigValidate, EvictRequiresPreemptAndFiniteBudget) {
  ServingConfig cfg;
  cfg.policy = AdmitPolicy::kFcfs;
  cfg.kv_evict = KvEvictPolicy::kColdBlocks;
  cfg.kv_budget_bytes = 1 << 20;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // no preempt

  cfg.preempt = true;
  cfg.kv_budget_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // unlimited budget

  cfg.kv_budget_bytes = 1 << 20;
  EXPECT_NO_THROW(cfg.validate());

  cfg.kv_block_bytes = 96;  // not a line multiple
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.kv_block_bytes = 256;
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// AdmissionPolicy: queued-yield gate + blocked-work preemption pressure
// ---------------------------------------------------------------------------

ServingConfig paged_cfg() {
  ServingConfig cfg;
  cfg.policy = AdmitPolicy::kFcfs;
  cfg.kv_budget_bytes = 1000;
  cfg.preempt = true;
  cfg.kv_evict = KvEvictPolicy::kColdBlocks;
  return cfg;
}

AdmissionPolicy::Candidate cand(std::size_t index, Cycle arrival,
                                std::uint64_t work, std::uint64_t bytes) {
  return AdmissionPolicy::Candidate{index, arrival, work, bytes};
}

TEST(PagedAdmissionSelect, LongCandidateYieldsToShorterQueuedPeer) {
  // Paged: the just-evicted long request (earlier arrival, FCFS seniority)
  // must NOT be re-admitted ahead of the short whose blocked admission
  // triggered the eviction - that would pay the refetch for nothing.
  const AdmissionPolicy paged{paged_cfg()};
  const auto picks =
      paged.select({cand(0, 0, 100, 500), cand(1, 50, 10, 200)}, {}, 0);
  EXPECT_EQ(picks, (std::vector<std::size_t>{1}));

  // Resident preemption keeps PR 4 behavior: FCFS seniority wins.
  ServingConfig resident = paged_cfg();
  resident.kv_evict = KvEvictPolicy::kNone;
  const auto pr4 = AdmissionPolicy{resident}.select(
      {cand(0, 0, 100, 500), cand(1, 50, 10, 200)}, {}, 0);
  EXPECT_EQ(pr4, (std::vector<std::size_t>{0, 1}));
}

TEST(PagedAdmissionSelect, MinimumWorkCandidateNeverYields) {
  // The queued-yield gate cannot block everyone: the shortest candidate
  // survives, so a non-empty queue on an idle machine still progresses.
  const AdmissionPolicy paged{paged_cfg()};
  const auto picks = paged.select(
      {cand(0, 0, 100, 300), cand(1, 10, 40, 300), cand(2, 20, 9, 300)}, {},
      0);
  ASSERT_FALSE(picks.empty());
  EXPECT_EQ(picks[0], 2u);
}

TEST(PagedShouldPreempt, BlockedWorkCountsOnlyUnderColdBlocks) {
  const AdmissionPolicy paged{paged_cfg()};
  // Nothing co-running, but a blocked candidate 10x shorter: paged
  // preemption fires (eviction frees the blocker's bytes)...
  EXPECT_TRUE(paged.should_preempt(100, {}, {10}));
  EXPECT_FALSE(paged.should_preempt(100, {}, {60}));  // within 2x

  // ...resident preemption ignores blocked candidates (yielding could
  // never unblock them).
  ServingConfig resident = paged_cfg();
  resident.kv_evict = KvEvictPolicy::kNone;
  EXPECT_FALSE(AdmissionPolicy{resident}.should_preempt(100, {}, {10}));
  // Both variants still honor co-running pressure.
  EXPECT_TRUE(AdmissionPolicy{resident}.should_preempt(100, {10}, {}));
}

// ---------------------------------------------------------------------------
// Continuous engine: eviction frees budget bytes
// ---------------------------------------------------------------------------

DecodePassConfig continuous_cfg() {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kContinuous;
  return pc;
}

// The headline property. Budget = exactly the long request's peak, so the
// short arrival is budget-blocked while the long is resident. Resident
// preemption (PR 4) can never free those bytes - the lone long request is
// never even preempted (nobody co-runs), so the short admits no earlier
// than the long's finish. Cold-block eviction swaps the long's KV out at
// its next stage boundary: the short admits mid-stream, long before the
// long finishes, and the freed/refetched bytes are visible in the new
// counters.
TEST(PagedEngine, EvictionAdmitsBudgetBlockedArrivalEarly) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 1024, 0, 1}, {1, 64, 2000, 1}});
  DecodePassConfig pc = continuous_cfg();
  pc.serving.policy = AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 1024 * kTinyBytesPerToken;
  pc.serving.preempt = true;

  const BatchStats resident = DecodePass(batch, pc, cfg).run();
  // PR 4: the lone long request runs to completion; the short waits for
  // its budget share to free at finish.
  EXPECT_EQ(resident.total_preemptions(), 0u);
  EXPECT_GE(resident.per_request[1].admit_cycle,
            resident.per_request[0].finish_cycle);

  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  const BatchStats paged = DecodePass(batch, pc, cfg).run();
  EXPECT_TRUE(paged.paged);
  // The long request was preempted and its blocks swapped out...
  EXPECT_GE(paged.per_request[0].preemptions, 1u);
  EXPECT_GT(paged.per_request[0].swapped_blocks, 0u);
  // ...which freed budget bytes: the short admits before the long's finish.
  EXPECT_LT(paged.per_request[1].admit_cycle,
            paged.per_request[0].finish_cycle);
  EXPECT_LT(paged.per_request[1].latency(), resident.per_request[1].latency());
  // The resume paid for the swapped blocks: bytes match blocks, cycles are
  // part of the long request's latency.
  EXPECT_EQ(paged.per_request[0].refetch_bytes,
            paged.per_request[0].swapped_blocks * kLineBytes);
  EXPECT_GT(paged.per_request[0].refetch_cycles, 0u);
  EXPECT_EQ(paged.total_refetch_bytes(), paged.per_request[0].refetch_bytes);
  // The short never swaps (it is never preempted).
  EXPECT_EQ(paged.per_request[1].swapped_blocks, 0u);

  // Work attribution stays exact through swap/refetch: every thread block
  // and every byte of DRAM traffic belongs to exactly one request.
  std::uint64_t reads = 0, tbs = 0;
  for (const RequestStats& r : paged.per_request) {
    reads += r.slice.dram_reads;
    tbs += r.slice.thread_blocks;
  }
  EXPECT_EQ(reads, paged.total.dram_reads);
  EXPECT_EQ(tbs, paged.total.thread_blocks);
}

TEST(PagedEngine, ExplicitRefetchCostAndBlockSizeAreHonored) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 1024, 0, 1}, {1, 64, 2000, 1}});
  DecodePassConfig pc = continuous_cfg();
  pc.serving.policy = AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 1024 * kTinyBytesPerToken;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  pc.serving.kv_block_bytes = 4096;
  pc.serving.refetch_cost = 7;

  const BatchStats s = DecodePass(batch, pc, cfg).run();
  const RequestStats& lng = s.per_request[0];
  ASSERT_GT(lng.swapped_blocks, 0u);
  EXPECT_EQ(lng.refetch_bytes, lng.swapped_blocks * 4096u);
  EXPECT_EQ(lng.refetch_cycles, lng.swapped_blocks * 7u);
  // 1024 tokens x 512 B = 512 KiB per layer: exactly 128 4-KiB blocks.
  EXPECT_EQ(lng.swapped_blocks, 128u);
}

// A block size larger than the victim's footprint leaves it no evictable
// whole block, so eviction could free nothing: blocked arrivals must NOT
// trigger the preemption (it would be pure churn - the short stays blocked
// and the long just loses its stage boundary). The run degenerates to
// resident-preemption behavior: no preemptions, no swaps, short admits at
// the long request's finish.
TEST(PagedEngine, OversizedBlocksNeverEvictOrChurn) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 1024, 0, 1}, {1, 64, 2000, 1}});
  DecodePassConfig pc = continuous_cfg();
  pc.serving.policy = AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 1024 * kTinyBytesPerToken;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  // 1 MiB blocks > the long request's 512 KiB footprint: zero whole blocks.
  pc.serving.kv_block_bytes = 1ull << 20;

  const BatchStats s = DecodePass(batch, pc, cfg).run();
  EXPECT_EQ(s.total_preemptions(), 0u);
  EXPECT_EQ(s.total_swapped_blocks(), 0u);
  EXPECT_EQ(s.total_refetch_bytes(), 0u);
  EXPECT_GE(s.per_request[1].admit_cycle, s.per_request[0].finish_cycle);
}

// Everyone still finishes under paging, however tight the budget: swap
// round-trips never drop a request.
TEST(PagedEngine, NoRequestIsEverDropped) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 512, 0, 1},
                                          {1, 64, 100, 1},
                                          {2, 64, 50'000, 2},
                                          {3, 128, 200, 1}});
  for (const AdmitPolicy policy :
       {AdmitPolicy::kFcfs, AdmitPolicy::kShortestRemaining}) {
    DecodePassConfig pc = continuous_cfg();
    pc.serving.policy = policy;
    pc.serving.kv_budget_bytes = 512 * kTinyBytesPerToken;
    pc.serving.preempt = true;
    pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
    const BatchStats s = DecodePass(batch, pc, cfg).run();
    for (const RequestStats& r : s.per_request) {
      EXPECT_GT(r.finish_cycle, 0u) << "policy=" << to_string(policy);
      EXPECT_GE(r.finish_cycle, r.admit_cycle);
      EXPECT_GE(r.admit_cycle, r.arrival_cycle);
    }
    EXPECT_GE(s.makespan, s.per_request[2].finish_cycle);
  }
}

// The paged flag gates the new print columns and counters: a non-paged run
// reports neither, so kv_evict=none output stays byte-identical to PR 4.
TEST(PagedEngine, NonPagedRunsCarryNoPagingCounters) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 256, 0, 1}, {1, 64, 500, 1}});
  DecodePassConfig pc = continuous_cfg();
  pc.serving.policy = AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 512 * kTinyBytesPerToken;
  pc.serving.preempt = true;
  const BatchStats s = DecodePass(batch, pc, cfg).run();
  EXPECT_FALSE(s.paged);
  EXPECT_EQ(s.total_swapped_blocks(), 0u);
  EXPECT_EQ(s.total_refetch_bytes(), 0u);
  EXPECT_EQ(s.total_refetch_cycles(), 0u);
  for (const RequestStats& r : s.per_request) {
    EXPECT_EQ(r.stats.counters.get("req.swapped_blocks"), 0u);
    EXPECT_EQ(r.stats.counters.get("req.refetch_bytes"), 0u);
  }
}

}  // namespace
}  // namespace llamcat
