// KV byte-conservation ledger: eviction/refetch edge cases at four levels.
// Private KvBlockPool bookkeeping (evict-then-immediately-resume round
// trips, partial tail pinning at odd block sizes), the shared pool's
// ref-counted eviction (double-unref rejection, swap refusal while a peer
// pins a block, last-unref-then-evict, shared partial tails at odd block
// sizes), the
// ServingAuditor shadow ledger (the contract enforcer itself must reject the
// races it exists to catch, e.g. a finish racing an outstanding swap), and
// the audited engine end-to-end at an odd --kv-block-bytes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/kv_block_pool.hpp"
#include "scenario/scenario.hpp"

namespace llamcat {
namespace {

using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::InvariantViolation;
using scenario::KvBlockPool;
using scenario::KvBlockPoolConfig;
using scenario::RequestBatch;
using scenario::ServingAuditor;

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

// ---------------------------------------------------------------------------
// Private blocks: swap round trips and tail pinning
// ---------------------------------------------------------------------------

/// One private request of `footprint` bytes at `block_bytes` blocks.
KvBlockPool private_one(std::uint64_t block_bytes, std::uint64_t footprint) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = block_bytes;
  return KvBlockPool(cfg, {{footprint}});
}

TEST(KvLedger, EvictThenImmediatelyResumeRoundTrips) {
  KvBlockPool pool = private_one(64, 64 * 10);
  (void)pool.admit(0);
  const std::uint64_t freed = pool.release(0);
  EXPECT_EQ(freed, 64u * 10);
  EXPECT_EQ(pool.resume_cost(0), freed);
  // Resume before anything else happens: the refetch must restore exactly
  // what the eviction moved, and the ledger must read fully resident again.
  const KvBlockPool::Admission r = pool.resume(0);
  EXPECT_EQ(r.charged_bytes, freed);
  EXPECT_EQ(r.refetch_blocks, 10u);
  EXPECT_EQ(pool.resume_cost(0), 0u);
  EXPECT_EQ(pool.releasable_blocks(0), 10u);
  // And the round trip is repeatable - no state leaks across cycles.
  EXPECT_EQ(pool.release(0), freed);
  EXPECT_EQ(pool.resume(0).charged_bytes, freed);
}

TEST(KvLedger, OddBlockSizePinsThePartialTail) {
  // 1000-byte footprint, 192-byte blocks: 5 whole blocks (960 B) can move,
  // the 40-byte tail can never leave the resident tier.
  KvBlockPool pool = private_one(192, 1000);
  (void)pool.admit(0);
  EXPECT_EQ(pool.releasable_blocks(0), 5u);
  const std::uint64_t freed = pool.release(0);
  EXPECT_EQ(freed, 5u * 192);
  EXPECT_LT(freed, 1000u);  // the tail stayed pinned
  // With everything already out, nothing more is releasable.
  EXPECT_EQ(pool.releasable_blocks(0), 0u);
  EXPECT_EQ(pool.resume(0).charged_bytes, 5u * 192);
  EXPECT_EQ(pool.finish(0), 1000u);  // tail included
}

TEST(KvLedger, BlockLargerThanFootprintIsUnswappable) {
  KvBlockPool pool = private_one(1 << 20, 4096);
  (void)pool.admit(0);
  EXPECT_EQ(pool.releasable_blocks(0), 0u);
  EXPECT_EQ(pool.release(0), 0u);
  const KvBlockPool::Admission r = pool.resume(0);
  EXPECT_EQ(r.charged_bytes, 0u);
  EXPECT_EQ(r.refetch_blocks, 0u);
}

// ---------------------------------------------------------------------------
// KvBlockPool: ref-counted eviction edge cases
// ---------------------------------------------------------------------------

/// Two requests in prefix group 0, equal footprints, equal prefix lengths.
KvBlockPool shared_pair(std::uint64_t block_bytes, std::uint64_t footprint,
                        std::uint64_t prefix) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = block_bytes;
  return KvBlockPool(cfg, {{footprint, 0, prefix}, {footprint, 0, prefix}});
}

TEST(KvBlockPoolLedger, DoubleReleaseIsRejected) {
  KvBlockPool pool = shared_pair(64, 640, 320);
  // Release before admission is as corrupt as a double release.
  EXPECT_THROW((void)pool.release(0), std::logic_error);
  (void)pool.admit(0);
  (void)pool.release(0);
  EXPECT_THROW((void)pool.release(0), std::logic_error);
}

TEST(KvBlockPoolLedger, SwapIsRefusedWhileAPeerPinsTheBlock) {
  // 640-byte footprints, 320-byte prefix at 64-byte blocks: 5 shared blocks
  // + 5 private whole blocks each.
  KvBlockPool pool = shared_pair(64, 640, 320);
  EXPECT_EQ(pool.admit(0).charged_bytes, 640u);
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.charged_bytes, 320u);  // the shared 5 blocks dedup
  EXPECT_EQ(a1.hit_blocks, 5u);
  // Request 1 still pins the shared blocks: releasing request 0 may only
  // swap its private region - the refcounted eviction refuses the rest.
  EXPECT_EQ(pool.releasable_blocks(0), 5u);
  EXPECT_EQ(pool.release(0), 5u * 64);
  // Request 1 is now the sole pinner, so all 10 of its blocks could move.
  EXPECT_EQ(pool.releasable_blocks(1), 10u);
}

TEST(KvBlockPoolLedger, LastUnrefThenEvictFreesTheSharedRun) {
  KvBlockPool pool = shared_pair(64, 640, 320);
  (void)pool.admit(0);
  (void)pool.admit(1);
  EXPECT_EQ(pool.release(0), 5u * 64);   // private only: peer pins the prefix
  EXPECT_EQ(pool.release(1), 10u * 64);  // last pinner left: prefix swaps too
  // Everything of request 0 is on the host tier now; its resume pays for
  // the private run AND the shared run (nobody kept the prefix warm).
  EXPECT_EQ(pool.resume_cost(0), 640u);
  const KvBlockPool::Admission r0 = pool.resume(0);
  EXPECT_EQ(r0.charged_bytes, 640u);
  EXPECT_EQ(r0.refetch_blocks, 10u);
  // Request 1 resumes after: the shared blocks are warm again, only its
  // private region refetches.
  EXPECT_EQ(pool.resume(1).charged_bytes, 5u * 64);
}

TEST(KvBlockPoolLedger, OddBlockSizeSharesOnlyWholePrefixBlocks) {
  // 1000-byte footprints, 500-byte prefix at 192-byte blocks: the prefix
  // shares floor(500/192) = 2 blocks (384 B); the remaining 616 bytes are
  // private - 3 whole blocks (576 B) plus a 40-byte resident tail.
  KvBlockPool pool = shared_pair(192, 1000, 500);
  EXPECT_EQ(pool.admit(0).charged_bytes, 1000u);
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.hit_blocks, 2u);
  EXPECT_EQ(a1.hit_bytes, 384u);
  EXPECT_EQ(a1.charged_bytes, 1000u - 384u);
  // Release order pins the tail both times: request 0 frees only its 3
  // private whole blocks, request 1 - the last pinner - the shared run too.
  EXPECT_EQ(pool.release(0), 3u * 192);
  EXPECT_EQ(pool.release(1), 3u * 192 + 2u * 192);
  EXPECT_EQ(pool.resume(0).charged_bytes, 3u * 192 + 2u * 192);
  EXPECT_EQ(pool.resume(1).charged_bytes, 3u * 192);
  // Drain: a finish frees the private region (tail included) always, the
  // shared region only at the last holder.
  EXPECT_EQ(pool.finish(0), 616u);
  EXPECT_EQ(pool.finish(1), 616u + 384u);
}

TEST(KvBlockPoolLedger, FinishWhileReleasedIsRejected) {
  KvBlockPool pool = shared_pair(64, 640, 320);
  (void)pool.admit(0);
  (void)pool.release(0);
  // The engine always resumes (and refetches) before finishing; the pool
  // refuses the shortcut that would free host-tier bytes it never repinned.
  EXPECT_THROW((void)pool.finish(0), std::logic_error);
  (void)pool.resume(0);
  EXPECT_EQ(pool.finish(0), 640u);
}

// ---------------------------------------------------------------------------
// ServingAuditor: the shadow ledger rejects the races it exists to catch
// ---------------------------------------------------------------------------

/// An auditor over private requests of the given footprints.
ServingAuditor private_auditor(std::uint64_t budget, std::uint64_t block_bytes,
                               bool paged,
                               const std::vector<std::uint64_t>& footprints) {
  std::vector<KvBlockPool::RequestLayout> layouts;
  for (const std::uint64_t f : footprints) layouts.push_back({f});
  return ServingAuditor(budget, block_bytes, paged, std::move(layouts));
}

TEST(KvLedgerAuditor, CleanLifecycleWithSwapRoundTripPasses) {
  // budget 1000, one request of 700 with 100-byte blocks (700 = 7 blocks).
  ServingAuditor audit =
      private_auditor(/*budget=*/1000, /*block_bytes=*/100, true, {700});
  audit.on_admit(0, 10, 700);
  audit.on_evict(0, 700, 20, 0);    // all 7 blocks out
  audit.on_resume(0, 700, 30, 700);  // all 7 back
  audit.on_finish(0, 40, 0);
  EXPECT_NO_THROW(audit.on_pass_end());
}

TEST(KvLedgerAuditor, FinishRacingAnOutstandingSwapThrows) {
  ServingAuditor audit = private_auditor(0, 100, true, {700});
  audit.on_admit(0, 1, 700);
  audit.on_evict(0, 700, 2, 0);
  // The engine's contract: a resume refetches everything before the request
  // can run again, so a finish with bytes still swapped out is impossible.
  EXPECT_THROW(audit.on_finish(0, 3, 0), InvariantViolation);
}

TEST(KvLedgerAuditor, PartialRefetchThrows) {
  ServingAuditor audit = private_auditor(0, 100, true, {700});
  audit.on_admit(0, 1, 700);
  audit.on_evict(0, 700, 2, 0);
  // Refetching less than the swapped set would leave blocks on the host
  // tier of a running request.
  EXPECT_THROW(audit.on_resume(0, 300, 3, 300), InvariantViolation);
}

TEST(KvLedgerAuditor, NonBlockGranularSwapThrows) {
  ServingAuditor audit = private_auditor(0, 100, true, {700});
  audit.on_admit(0, 1, 700);
  EXPECT_THROW(audit.on_evict(0, 150, 2, 550), InvariantViolation);
}

TEST(KvLedgerAuditor, EngineLedgerDivergenceThrows) {
  ServingAuditor audit = private_auditor(0, 64, false, {700});
  // The engine claims 650 resident after pinning 700: the shadow ledger
  // catches the drift on the exact event.
  EXPECT_THROW(audit.on_admit(0, 1, 650), InvariantViolation);
}

TEST(KvLedgerAuditor, OverBudgetPinThrows) {
  ServingAuditor audit =
      private_auditor(/*budget=*/1000, 64, false, {700, 700});
  audit.on_admit(0, 1, 700);
  EXPECT_THROW(audit.on_admit(1, 2, 1400), InvariantViolation);
}

TEST(KvLedgerAuditor, BackwardsClockThrows) {
  ServingAuditor audit = private_auditor(0, 64, false, {700, 700});
  audit.on_admit(0, 10, 700);
  EXPECT_THROW(audit.on_admit(1, 5, 1400), InvariantViolation);
}

TEST(KvLedgerAuditor, UnfinishedRequestFailsPassEnd) {
  ServingAuditor audit = private_auditor(0, 64, false, {700});
  audit.on_admit(0, 1, 700);
  EXPECT_THROW(audit.on_pass_end(), InvariantViolation);
}

// ---------------------------------------------------------------------------
// Audited engine end-to-end at an odd block size
// ---------------------------------------------------------------------------

TEST(KvLedgerEngine, OddBlockBytesCloseTheLedgerUnderAudit) {
  // The PagedEngine preemption scenario, but with 192-byte blocks (3 lines:
  // footprints are line-granular, not 192-granular, so partial tails are
  // the norm) and the in-engine auditor armed. The run must complete with
  // every cumulative refetch closing the swap ledger at 192 B granularity.
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 512, 0, 2},
                                          {1, 64, 1000, 1},
                                          {2, 64, 3000, 1},
                                          {3, 128, 5000, 1}});
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kContinuous;
  pc.serving.policy = AdmitPolicy::kShortestRemaining;
  pc.serving.kv_budget_bytes = 544 * kTinyBytesPerToken;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  pc.serving.kv_block_bytes = 192;
  pc.audit = true;

  const scenario::BatchStats s = DecodePass(batch, pc, cfg).run();
  ASSERT_GT(s.total_swapped_blocks(), 0u) << "scenario must actually swap";
  for (const scenario::RequestStats& r : s.per_request) {
    EXPECT_EQ(r.refetch_bytes, r.swapped_blocks * 192)
        << "request " << r.id;
    EXPECT_GT(r.finish_cycle, 0u) << "request " << r.id;
  }
  // The post-run contract agrees.
  const scenario::AuditReport rep = scenario::audit_batch(batch, pc, s);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

}  // namespace
}  // namespace llamcat
