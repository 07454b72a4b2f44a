// Unit tests: vector core (windows, issue/retire, throttling, counters)
// and the thread-block scheduler (partitioning + redistribution).
#include <gtest/gtest.h>

#include "vcore/tb_scheduler.hpp"
#include "vcore/vector_core.hpp"

namespace llamcat {
namespace {

// A tiny synthetic TB source: each TB is `loads` loads followed by one
// compute of `compute_cycles`.
class SyntheticSource final : public ITbSource {
 public:
  SyntheticSource(std::uint64_t num_tbs, std::uint32_t loads,
                  std::uint32_t compute_cycles = 1)
      : loads_(loads), compute_(compute_cycles) {
    for (std::uint64_t i = 0; i < num_tbs; ++i) {
      TbDesc d;
      d.id = static_cast<TbId>(i);
      d.h = 0;
      d.g = static_cast<std::uint32_t>(i);
      d.l_begin = 0;
      d.l_end = loads;
      tbs_.push_back(d);
    }
  }
  std::uint64_t num_tbs() const override { return tbs_.size(); }
  const TbDesc& tb(std::uint64_t i) const override { return tbs_[i]; }
  std::uint32_t instr_count(std::uint64_t) const override {
    return loads_ + 1;
  }
  Instr instr_at(std::uint64_t tb, std::uint32_t i) const override {
    if (i < loads_) {
      // Distinct lines per TB so there is no cross-TB reuse.
      return Instr{Instr::Kind::kLoad,
                   (tb * loads_ + i + 1) * 0x10000, 1};
    }
    return Instr{Instr::Kind::kCompute, 0, compute_};
  }

 private:
  std::vector<TbDesc> tbs_;
  std::uint32_t loads_;
  std::uint32_t compute_;
};

// A source whose TBs carry explicit request tags (as a DynamicTbSource
// produces); tags are assigned from `request_ids` in TB order.
class TaggedSource final : public ITbSource {
 public:
  explicit TaggedSource(const std::vector<std::uint32_t>& request_ids) {
    for (std::size_t i = 0; i < request_ids.size(); ++i) {
      TbDesc d;
      d.id = static_cast<TbId>(i);
      d.l_begin = 0;
      d.l_end = 1;
      d.request_id = request_ids[i];
      tbs_.push_back(d);
    }
  }
  std::uint64_t num_tbs() const override { return tbs_.size(); }
  const TbDesc& tb(std::uint64_t i) const override { return tbs_[i]; }
  std::uint32_t instr_count(std::uint64_t) const override { return 1; }
  Instr instr_at(std::uint64_t, std::uint32_t) const override {
    return Instr{Instr::Kind::kCompute, 0, 1};
  }

 private:
  std::vector<TbDesc> tbs_;
};

CoreConfig small_core() {
  CoreConfig cfg;
  cfg.num_cores = 2;
  cfg.num_inst_windows = 2;
  cfg.inst_window_depth = 4;
  return cfg;
}

L1Config small_l1() {
  L1Config cfg;
  cfg.size_bytes = 4096;
  cfg.miss_queue_entries = 8;
  return cfg;
}

TEST(TbScheduler, GlobalQueueDispatchesInOrder) {
  SyntheticSource src(6, 1);
  TbScheduler sched(src, 2, TbDispatch::kGlobalQueue);
  EXPECT_EQ(*sched.next_tb(0), 0u);
  EXPECT_EQ(*sched.next_tb(1), 1u);
  EXPECT_EQ(*sched.next_tb(1), 2u);
  sched.mark_complete(0);
  EXPECT_FALSE(sched.all_complete());
}

TEST(TbScheduler, RoundRobinPartition) {
  SyntheticSource src(6, 1);
  TbScheduler sched(src, 2, TbDispatch::kPartitionedStealing);
  EXPECT_EQ(*sched.next_tb(0), 0u);
  EXPECT_EQ(*sched.next_tb(0), 2u);
  EXPECT_EQ(*sched.next_tb(1), 1u);
  EXPECT_EQ(sched.remaining_for(0), 1u);
}

TEST(TbScheduler, BlockedPartition) {
  SyntheticSource src(6, 1);
  TbScheduler sched(src, 2, TbDispatch::kStaticBlocked);
  // Core 0 owns [0,3), core 1 owns [3,6).
  EXPECT_EQ(*sched.next_tb(0), 0u);
  EXPECT_EQ(*sched.next_tb(0), 1u);
  EXPECT_EQ(*sched.next_tb(1), 3u);
}

TEST(TbScheduler, StealsFromMostLoadedWhenEmpty) {
  SyntheticSource src(6, 1);
  TbScheduler sched(src, 2, TbDispatch::kStaticBlocked);
  // Drain core 0's own partition.
  sched.next_tb(0);
  sched.next_tb(0);
  sched.next_tb(0);
  // Redistribution: core 0 now steals core 1's oldest block.
  EXPECT_EQ(*sched.next_tb(0), 3u);
  EXPECT_EQ(sched.stolen(), 1u);
  EXPECT_EQ(*sched.next_tb(1), 4u);
  EXPECT_EQ(*sched.next_tb(1), 5u);
  EXPECT_FALSE(sched.next_tb(1).has_value());
}

// Regression: remaining_for used to index queues_[core] even in kGlobalQueue
// mode, where queues_ has size 1 - an out-of-bounds read for core > 0. It
// now reports the shared queue depth for every core.
TEST(TbScheduler, GlobalQueueRemainingForAnyCore) {
  SyntheticSource src(6, 1);
  TbScheduler sched(src, 4, TbDispatch::kGlobalQueue);
  EXPECT_EQ(sched.remaining_for(0), 6u);
  EXPECT_EQ(sched.remaining_for(3), 6u);
  sched.next_tb(2);
  EXPECT_EQ(sched.remaining_for(0), 5u);
  EXPECT_EQ(sched.remaining_for(3), 5u);
}

TEST(TbScheduler, TracksPerRequestDispatchAndCompletion) {
  TaggedSource src({7, 7, 7, 3, 3, 3});
  TbScheduler sched(src, 2, TbDispatch::kGlobalQueue);
  ASSERT_EQ(sched.num_requests(), 2u);
  EXPECT_EQ(sched.request_id_at(0), 7u);
  EXPECT_EQ(sched.request_id_at(1), 3u);
  EXPECT_EQ(sched.total_of(0), 3u);
  EXPECT_EQ(sched.total_of(1), 3u);
  EXPECT_EQ(sched.request_index_of_tb(0), 0u);
  EXPECT_EQ(sched.request_index_of_tb(4), 1u);

  sched.next_tb(0);  // tb 0 (request 7)
  sched.next_tb(1);  // tb 1 (request 7)
  EXPECT_EQ(sched.dispatched_of(0), 2u);
  EXPECT_EQ(sched.dispatched_of(1), 0u);
  sched.mark_complete(0);
  sched.mark_complete(3);
  EXPECT_EQ(sched.completed_of(0), 1u);
  EXPECT_EQ(sched.completed_of(1), 1u);
  EXPECT_EQ(sched.completed(), 2u);
  // mark_complete no longer ignores tb_idx: completing a second block of
  // request 3 moves only that request's counter.
  sched.mark_complete(4);
  EXPECT_EQ(sched.completed_of(0), 1u);
  EXPECT_EQ(sched.completed_of(1), 2u);
}

TEST(TbScheduler, DoubleCompleteAssertsInDebug) {
  TaggedSource src({0, 0});
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  sched.next_tb(0);
  sched.mark_complete(0);
  EXPECT_DEBUG_DEATH(sched.mark_complete(0), "completed twice");
}

TEST(TbScheduler, InterleaveRoundRobinsAcrossRequests) {
  // Concatenated per-request TBs: [0,0,0,1,1,1]. Interleave dispatch must
  // alternate requests in the global order: 0,3,1,4,2,5.
  TaggedSource src({0, 0, 0, 1, 1, 1});
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue,
                    RequestDispatch::kInterleave);
  EXPECT_EQ(*sched.next_tb(0), 0u);
  EXPECT_EQ(*sched.next_tb(0), 3u);
  EXPECT_EQ(*sched.next_tb(0), 1u);
  EXPECT_EQ(*sched.next_tb(0), 4u);
  EXPECT_EQ(*sched.next_tb(0), 2u);
  EXPECT_EQ(*sched.next_tb(0), 5u);
}

TEST(TbScheduler, PartitionedPinsRequestsToCoreGroups) {
  // 2 requests on 4 cores: request 0 owns cores {0,1}, request 1 owns
  // {2,3}. Dispatch and stealing both stay inside the owning group.
  TaggedSource src({0, 0, 0, 0, 1, 1, 1, 1});
  TbScheduler sched(src, 4, TbDispatch::kPartitionedStealing,
                    RequestDispatch::kPartitioned);
  for (CoreId core : {CoreId{0}, CoreId{1}}) {
    const auto tb = sched.next_tb(core);
    ASSERT_TRUE(tb.has_value());
    EXPECT_EQ(src.tb(*tb).request_id, 0u);
  }
  for (CoreId core : {CoreId{2}, CoreId{3}}) {
    const auto tb = sched.next_tb(core);
    ASSERT_TRUE(tb.has_value());
    EXPECT_EQ(src.tb(*tb).request_id, 1u);
  }
  // Drain request 0's group; core 0 must not steal request 1's blocks.
  ASSERT_TRUE(sched.next_tb(0).has_value());
  ASSERT_TRUE(sched.next_tb(1).has_value());
  EXPECT_FALSE(sched.next_tb(0).has_value());
  EXPECT_EQ(sched.stolen(), 0u);
  // Request 1's group still has its remaining blocks.
  EXPECT_TRUE(sched.next_tb(2).has_value());
}

TEST(VectorCore, RunsTbsToCompletionWithImmediateFills) {
  SyntheticSource src(4, 2);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  Cycle now = 0;
  std::uint32_t guard = 10000;
  while (!sched.all_complete() && guard--) {
    ++now;
    core.tick(now);
    // Instantly serve every outgoing load.
    while (auto out = core.peek_outgoing()) {
      core.pop_outgoing();
      if (out->type == AccessType::kLoad) core.on_load_fill(out->line_addr);
    }
  }
  EXPECT_TRUE(sched.all_complete());
  EXPECT_TRUE(core.fully_idle());
  EXPECT_EQ(core.tbs_completed(), 4u);
  EXPECT_EQ(core.instructions_issued(), 4u * 3);
}

TEST(VectorCore, MaxTbLimitsActiveWindows) {
  SyntheticSource src(8, 4);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  core.set_max_tb(1);
  Cycle now = 0;
  for (int i = 0; i < 20; ++i) core.tick(++now);
  EXPECT_EQ(core.active_windows(), 1u);
  core.set_max_tb(2);
  for (int i = 0; i < 20; ++i) core.tick(++now);
  EXPECT_EQ(core.active_windows(), 2u);
}

TEST(VectorCore, SetMaxTbClamps) {
  SyntheticSource src(1, 1);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  core.set_max_tb(0);
  EXPECT_EQ(core.max_tb(), 1u);
  core.set_max_tb(99);
  EXPECT_EQ(core.max_tb(), 2u);  // num_inst_windows
}

TEST(VectorCore, CountsCmemWhenLoadsNeverReturn) {
  SyntheticSource src(1, 8);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  Cycle now = 0;
  for (int i = 0; i < 100; ++i) {
    ++now;
    core.tick(now);
    while (core.peek_outgoing()) core.pop_outgoing();  // never fill
  }
  const CoreSample s = core.take_sample();
  EXPECT_GT(s.c_mem, 0u);
  // take_sample resets.
  EXPECT_EQ(core.take_sample().c_mem, 0u);
}

TEST(VectorCore, CountsIdleWhenNoWork) {
  SyntheticSource src(0, 1);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  Cycle now = 0;
  for (int i = 0; i < 50; ++i) core.tick(++now);
  EXPECT_EQ(core.take_sample().c_idle, 50u);
  EXPECT_TRUE(core.fully_idle());
}

TEST(VectorCore, FirstTbReportProduced) {
  SyntheticSource src(2, 2);
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  Cycle now = 0;
  std::uint32_t guard = 1000;
  while (!core.first_tb_report().has_value() && guard--) {
    ++now;
    core.tick(now);
    while (auto out = core.peek_outgoing()) {
      core.pop_outgoing();
      if (out->type == AccessType::kLoad) core.on_load_fill(out->line_addr);
    }
  }
  ASSERT_TRUE(core.first_tb_report().has_value());
  EXPECT_GT(core.first_tb_report()->duration, 0u);
  EXPECT_GE(core.first_tb_report()->mem_stall_frac, 0.0);
  EXPECT_LE(core.first_tb_report()->mem_stall_frac, 1.0);
}

TEST(VectorCore, StoresArePosted) {
  // One TB of a single store: completes without any fill.
  class StoreSource final : public ITbSource {
   public:
    std::uint64_t num_tbs() const override { return 1; }
    const TbDesc& tb(std::uint64_t) const override { return tb_; }
    std::uint32_t instr_count(std::uint64_t) const override { return 1; }
    Instr instr_at(std::uint64_t, std::uint32_t) const override {
      return Instr{Instr::Kind::kStore, 0x40, 1};
    }
   private:
    TbDesc tb_{};
  };
  StoreSource src;
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue);
  VectorCore core(small_core(), small_l1(), 0, 1);
  core.bind(&sched);
  Cycle now = 0;
  std::uint32_t guard = 100;
  while (!sched.all_complete() && guard--) core.tick(++now);
  EXPECT_TRUE(sched.all_complete());
  ASSERT_TRUE(core.peek_outgoing().has_value());
  EXPECT_EQ(core.peek_outgoing()->type, AccessType::kStore);
}

}  // namespace
}  // namespace llamcat
