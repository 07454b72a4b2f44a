// KvBlockPool unit tests: admission/hit/charge byte math, conservative
// admission estimates, the closed-form whole-block arithmetic of
// all-private layouts (the property that keeps --kv-share=off golden rows
// byte-identical), lifecycle enforcement and the cumulative pool counters
// that feed BatchStats.
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/kv_block_pool.hpp"

namespace llamcat {
namespace {

using scenario::kNoPrefixGroup;
using scenario::KvBlockPool;
using scenario::KvBlockPoolConfig;

TEST(KvBlockPool, ConfigValidation) {
  KvBlockPoolConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.block_bytes = 100;  // not a line multiple
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.block_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(KvBlockPool, LayoutValidation) {
  KvBlockPoolConfig cfg;
  // A prefix longer than the footprint is impossible geometry.
  EXPECT_THROW(KvBlockPool(cfg, {{1024, 0, 2048}}), std::invalid_argument);
  // A prefix length without a group would be dead identity.
  EXPECT_THROW(KvBlockPool(cfg, {{1024, kNoPrefixGroup, 64}}),
               std::invalid_argument);
}

TEST(KvBlockPool, RefetchCostDerivesFromTheHostLink) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 4096;
  EXPECT_EQ(cfg.cycles_per_block(), 512u);  // block/8
  cfg.refetch_cost = 7;
  EXPECT_EQ(cfg.cycles_per_block(), 7u);
}

TEST(KvBlockPool, PrefixHitChargesOnlyThePrivateRegion) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 256;
  // Three requests: two share a 1024-byte prefix (4 blocks), one private.
  KvBlockPool pool(cfg, {{4096, 0, 1024}, {4096, 0, 1024},
                         {4096, kNoPrefixGroup, 0}});
  const KvBlockPool::Admission a0 = pool.admit(0);
  EXPECT_EQ(a0.charged_bytes, 4096u);
  EXPECT_EQ(a0.lookup_blocks, 4u);
  EXPECT_EQ(a0.hit_blocks, 0u);  // first owner allocates
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.lookup_blocks, 4u);
  EXPECT_EQ(a1.hit_blocks, 4u);
  EXPECT_EQ(a1.hit_bytes, 1024u);
  EXPECT_EQ(a1.charged_bytes, 4096u - 1024u);
  const KvBlockPool::Admission a2 = pool.admit(2);
  EXPECT_EQ(a2.lookup_blocks, 0u);  // no group, no probe
  EXPECT_EQ(a2.charged_bytes, 4096u);

  EXPECT_EQ(pool.total_lookups(), 8u);
  EXPECT_EQ(pool.total_hits(), 4u);
  EXPECT_EQ(pool.total_shared_bytes(), 1024u);
  EXPECT_EQ(pool.total_logical_bytes(), 3u * 4096);
  EXPECT_EQ(pool.total_charged_bytes(),
            pool.total_logical_bytes() - pool.total_shared_bytes());
}

TEST(KvBlockPool, DistinctGroupsNeverShare) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  KvBlockPool pool(cfg, {{640, 0, 320}, {640, 1, 320}});
  (void)pool.admit(0);
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.hit_blocks, 0u);  // same block indices, different key space
  EXPECT_EQ(a1.charged_bytes, 640u);
}

TEST(KvBlockPool, AdmitCostIsAConservativeEstimate) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  KvBlockPool pool(cfg, {{640, 0, 320}, {640, 0, 320}});
  // Before anyone admits, both estimates are the full footprint.
  EXPECT_EQ(pool.admit_cost(0), 640u);
  EXPECT_EQ(pool.admit_cost(1), 640u);
  (void)pool.admit(0);
  // After a peer admits, the estimate drops to the deduped charge and
  // matches the actual admission exactly - the budget gate never sees a
  // cost that later turns out higher.
  const std::uint64_t estimate = pool.admit_cost(1);
  EXPECT_EQ(estimate, 320u);
  EXPECT_EQ(pool.admit(1).charged_bytes, estimate);
}

TEST(KvBlockPool, FirstAdmissionRefetchesAPeerEvictedPrefix) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  cfg.refetch_cost = 3;
  KvBlockPool pool(cfg, {{640, 0, 320}, {640, 0, 320}});
  (void)pool.admit(0);
  const std::uint64_t freed = pool.release(0);  // all 10 blocks to host
  EXPECT_EQ(freed, 640u);
  // Request 1 has never run, but its prefix blocks exist on the host tier:
  // its FIRST admission refetches them (charged and priced), then allocates
  // its private region.
  EXPECT_EQ(pool.admit_cost(1), 640u);
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.charged_bytes, 640u);
  EXPECT_EQ(a1.hit_blocks, 0u);  // a host-tier block is not a free hit
  EXPECT_EQ(a1.refetch_blocks, 5u);
  EXPECT_EQ(a1.refetch_bytes, 320u);
  EXPECT_EQ(a1.refetch_cycles, 5u * 3);
  // Request 0's eventual resume finds its prefix warm again.
  EXPECT_EQ(pool.resume_cost(0), 320u);
  EXPECT_EQ(pool.resume(0).charged_bytes, 320u);
}

TEST(KvBlockPool, FinishFreesSharedBlocksOnlyAtTheLastHolder) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  KvBlockPool pool(cfg, {{640, 0, 320}, {640, 0, 320}});
  (void)pool.admit(0);
  (void)pool.admit(1);
  // Request 0 finishes first: only its private region frees; the prefix
  // stays alive (and resident) for the surviving holder.
  EXPECT_EQ(pool.finish(0), 320u);
  EXPECT_EQ(pool.finish(1), 640u);
}

TEST(KvBlockPool, FreedPrefixIsReallocatedNotRefetched) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  KvBlockPool pool(cfg, {{640, 0, 320}, {640, 0, 320}});
  (void)pool.admit(0);
  EXPECT_EQ(pool.finish(0), 640u);  // last holder: the prefix frees entirely
  // A later group member starts from nothing: full charge, no hit, no
  // refetch (the blocks are gone, not swapped).
  const KvBlockPool::Admission a1 = pool.admit(1);
  EXPECT_EQ(a1.charged_bytes, 640u);
  EXPECT_EQ(a1.hit_blocks, 0u);
  EXPECT_EQ(a1.refetch_blocks, 0u);
}

TEST(KvBlockPool, LifecycleMisuseThrows) {
  KvBlockPoolConfig cfg;
  cfg.block_bytes = 64;
  KvBlockPool pool(cfg, {{640, 0, 320}});
  EXPECT_THROW((void)pool.resume(0), std::logic_error);  // never admitted
  (void)pool.admit(0);
  EXPECT_THROW((void)pool.admit(0), std::logic_error);   // double admit
  EXPECT_THROW((void)pool.resume(0), std::logic_error);  // active, not released
  EXPECT_EQ(pool.finish(0), 640u);
  EXPECT_THROW((void)pool.finish(0), std::logic_error);  // double finish
  EXPECT_THROW((void)pool.release(0), std::logic_error);  // release after finish
}

// The property the golden rows lean on: with every layout private, the
// pool's charges, frees and refetch prices are the per-request whole-block
// arithmetic (footprint / block whole blocks swap, a partial tail stays,
// refetch costs blocks x cycles_per_block) byte for byte across a full
// evict/resume cycle - at the line granule, an odd block size and a block
// larger than the footprint.
TEST(KvBlockPool, AllPrivatePoolMatchesThePagerByteForByte) {
  for (const std::uint64_t block : {64ull, 192ull, 4096ull, 1ull << 20}) {
    KvBlockPoolConfig cfg;
    cfg.block_bytes = block;
    const std::vector<std::uint64_t> footprints = {1000, 4096, 64};
    std::vector<KvBlockPool::RequestLayout> layouts;
    for (const std::uint64_t f : footprints) layouts.push_back({f, kNoPrefixGroup, 0});
    KvBlockPool pool(cfg, layouts);
    for (std::size_t i = 0; i < footprints.size(); ++i) {
      const std::uint64_t blocks = footprints[i] / block;
      EXPECT_EQ(pool.admit_cost(i), footprints[i]) << "block " << block;
      EXPECT_EQ(pool.admit(i).charged_bytes, footprints[i]);
      EXPECT_EQ(pool.releasable_blocks(i), blocks)
          << "block " << block << " req " << i;
      EXPECT_EQ(pool.release(i), blocks * block) << "block " << block;
      const KvBlockPool::Admission pr = pool.resume(i);
      EXPECT_EQ(pr.charged_bytes, blocks * block) << "block " << block;
      EXPECT_EQ(pr.refetch_bytes, blocks * block) << "block " << block;
      EXPECT_EQ(pr.refetch_blocks, blocks) << "block " << block;
      EXPECT_EQ(pr.refetch_cycles, blocks * cfg.cycles_per_block())
          << "block " << block;
      EXPECT_EQ(pool.finish(i), footprints[i]);
    }
    EXPECT_EQ(pool.total_lookups(), 0u);
    EXPECT_EQ(pool.total_shared_bytes(), 0u);
  }
}

}  // namespace
}  // namespace llamcat
