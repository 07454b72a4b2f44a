// Continuous-batching engine: DynamicTbSource staged commits and
// retirement, TbScheduler mid-run injection, System admission hook, and the
// scenario-level invariants - kContinuous with zero arrivals at batch one
// reproduces kCoScheduled exactly, streaming beats the barrier on skewed
// batches, and everything is deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "sim/system.hpp"
#include "trace/dynamic_source.hpp"
#include "vcore/tb_scheduler.hpp"

namespace llamcat {
namespace {

using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::RequestBatch;
using scenario::RequestSpec;

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

// ---------------------------------------------------------------------------
// DynamicTbSource
// ---------------------------------------------------------------------------

TEST(DynamicTbSource, CommitAppendsAndPreservesEarlierIndices) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  EXPECT_EQ(src.num_tbs(), 0u);
  EXPECT_EQ(src.num_requests(), 0u);

  src.add(3, shift_to_slot(a.op, 0), a.mapping);
  EXPECT_EQ(src.num_tbs(), 0u);  // staged, not yet visible
  EXPECT_EQ(src.staged_ops(), 1u);
  const std::uint64_t first_batch = src.commit();
  EXPECT_GT(first_batch, 0u);
  EXPECT_EQ(src.num_tbs(), first_batch);
  EXPECT_EQ(src.tb(first_batch - 1).request_id, 3u);

  const TbDesc before = src.tb(0);
  src.add(7, shift_to_slot(a.op, 1), a.mapping);
  const std::uint64_t second_batch = src.commit();
  EXPECT_EQ(src.num_tbs(), first_batch + second_batch);
  // Earlier thread blocks are untouched; new ones are tagged and renumbered.
  EXPECT_EQ(src.tb(0).id, before.id);
  EXPECT_EQ(src.tb(0).request_id, 3u);
  EXPECT_EQ(src.tb(first_batch).request_id, 7u);
  EXPECT_EQ(src.tb(first_batch).id, first_batch);
  EXPECT_EQ(src.num_requests(), 2u);
  EXPECT_EQ(src.request_id_at(0), 3u);
  EXPECT_EQ(src.request_id_at(1), 7u);
}

TEST(DynamicTbSource, CommitInterleavesSimultaneouslyStagedOps) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource rr;
  rr.add(0, shift_to_slot(a.op, 0), a.mapping);
  rr.add(1, shift_to_slot(a.op, 1), a.mapping);
  rr.commit(FuseOrder::kRoundRobin);
  // a,b,a,b... (FusedWave.RoundRobinInterleavesAndTagsProvenance pins the
  // full order against the per-operator TraceGens).
  for (std::uint64_t i = 0; i < rr.num_tbs(); ++i) {
    EXPECT_EQ(rr.tb(i).request_id, i % 2);
  }

  DynamicTbSource cc;
  cc.add(0, shift_to_slot(a.op, 0), a.mapping);
  cc.add(1, shift_to_slot(a.op, 1), a.mapping);
  cc.commit(FuseOrder::kConcat);
  const std::uint64_t half = cc.num_tbs() / 2;
  for (std::uint64_t i = 0; i < cc.num_tbs(); ++i) {
    EXPECT_EQ(cc.tb(i).request_id, i < half ? 0u : 1u);
  }
}

TEST(DynamicTbSource, AttributionAndAliasRejection) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(5, shift_to_slot(a.op, 0), a.mapping);
  src.commit();
  EXPECT_EQ(src.request_index_of(a.op.kv_base), 0u);
  EXPECT_EQ(src.request_index_of(a.op.kv_base + kSlotStride), kNoRequest);
  // Same request may re-claim its slot (the next stage of the same layer);
  // another request may not.
  EXPECT_NO_THROW(src.add(5, shift_to_slot(a.op, 0), a.mapping));
  EXPECT_THROW(src.add(6, shift_to_slot(a.op, 0), a.mapping),
               std::invalid_argument);
}

TEST(DynamicTbSource, RetireKeepsAttributionAndBlocksReuse) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(5, shift_to_slot(a.op, 0), a.mapping);
  src.commit();
  EXPECT_FALSE(src.retired(5));
  src.retire_request(5);
  EXPECT_TRUE(src.retired(5));
  // Straggler traffic of the retired request still attributes to it.
  EXPECT_EQ(src.request_index_of(a.op.kv_base), 0u);
  EXPECT_EQ(src.num_requests(), 1u);
  // A retired request cannot be fed more work.
  EXPECT_THROW(src.add(5, shift_to_slot(a.op, 0), a.mapping),
               std::invalid_argument);
  // Unknown ids are a no-op.
  EXPECT_NO_THROW(src.retire_request(12345));
  EXPECT_FALSE(src.retired(12345));
}

// ---------------------------------------------------------------------------
// TbScheduler injection
// ---------------------------------------------------------------------------

/// Drains a scheduler completely via round-robin core polling and returns
/// the dispatch order.
std::vector<std::uint64_t> drain(TbScheduler& sched, std::uint32_t cores) {
  std::vector<std::uint64_t> order;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t c = 0; c < cores; ++c) {
      if (const auto tb = sched.next_tb(static_cast<CoreId>(c))) {
        order.push_back(*tb);
        progress = true;
      }
    }
  }
  return order;
}

TEST(TbSchedulerInject, SingleInjectionMatchesConstructionLayout) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  for (const TbDispatch mode :
       {TbDispatch::kStaticBlocked, TbDispatch::kPartitionedStealing,
        TbDispatch::kGlobalQueue}) {
    DynamicTbSource dyn;
    dyn.add(0, shift_to_slot(a.op, 0), a.mapping);
    dyn.commit();

    // Constructed over the already-populated source...
    TbScheduler built(dyn, 4, mode);
    // ...vs constructed empty, then synced after the same commit landed.
    DynamicTbSource dyn2;
    TbScheduler synced(dyn2, 4, mode);
    EXPECT_EQ(synced.total(), 0u);
    EXPECT_EQ(synced.num_requests(), 0u);
    EXPECT_TRUE(synced.all_complete());  // vacuously: nothing injected yet
    dyn2.add(0, shift_to_slot(a.op, 0), a.mapping);
    dyn2.commit();
    EXPECT_EQ(synced.sync_with_source(), built.total());
    EXPECT_EQ(synced.sync_with_source(), 0u);  // idempotent

    EXPECT_EQ(drain(built, 4), drain(synced, 4));
  }
}

TEST(TbSchedulerInject, GrowsRequestBookkeepingAcrossInjections) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  TbScheduler sched(src, 2, TbDispatch::kPartitionedStealing);

  src.add(7, shift_to_slot(a.op, 0), a.mapping);
  src.commit();
  const std::uint64_t first = sched.sync_with_source();
  ASSERT_GT(first, 0u);
  EXPECT_EQ(sched.num_requests(), 1u);
  EXPECT_EQ(sched.request_id_at(0), 7u);
  EXPECT_EQ(sched.total_of(0), first);
  EXPECT_EQ(sched.dense_index_of(7), 0u);
  EXPECT_EQ(sched.dense_index_of(9), kNoRequest);

  // Work the first request to completion, then admit a second one.
  for (const std::uint64_t tb : drain(sched, 2)) sched.mark_complete(tb);
  EXPECT_TRUE(sched.all_complete());
  EXPECT_EQ(sched.completed_of(0), first);

  src.add(9, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  const std::uint64_t second = sched.sync_with_source();
  ASSERT_GT(second, 0u);
  EXPECT_FALSE(sched.all_complete());
  EXPECT_EQ(sched.num_requests(), 2u);
  EXPECT_EQ(sched.dense_index_of(9), 1u);
  EXPECT_EQ(sched.total_of(1), second);
  EXPECT_EQ(sched.total(), first + second);
  for (const std::uint64_t tb : drain(sched, 2)) sched.mark_complete(tb);
  EXPECT_TRUE(sched.all_complete());
  EXPECT_EQ(sched.completed_of(1), second);
}

// Regression: injected blocks of a request that got a carved core group at
// construction must land inside that group - dealing them from a
// dense-index home core would let the other group's cores run them,
// breaking the kPartitioned isolation invariant.
TEST(TbSchedulerInject, PartitionedInjectionStaysInCarvedGroup) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  // 4 cores, 2 requests: request 0 owns cores {0,1}, request 1 owns {2,3}.
  TbScheduler sched(src, 4, TbDispatch::kPartitionedStealing,
                    RequestDispatch::kPartitioned);
  for (const std::uint64_t tb : drain(sched, 4)) sched.mark_complete(tb);
  ASSERT_TRUE(sched.all_complete());

  // Inject request 1's next stage: cores 0/1 (request 0's group) must see
  // nothing - not from their own queues and not via stealing.
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  ASSERT_GT(sched.sync_with_source(), 0u);
  EXPECT_FALSE(sched.next_tb(0).has_value());
  EXPECT_FALSE(sched.next_tb(1).has_value());
  std::uint64_t delivered = 0;
  while (sched.next_tb(2) || sched.next_tb(3)) ++delivered;
  EXPECT_EQ(delivered, sched.total_of(1) / 2);  // the injected second op
}

// Regression: single-core kPartitioned injection must not abort (an
// overzealous assert used to fire: one core legitimately means one queue).
TEST(TbSchedulerInject, PartitionedSingleCoreInjectionWorks) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  TbScheduler sched(src, 1, TbDispatch::kPartitionedStealing,
                    RequestDispatch::kPartitioned);
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  ASSERT_GT(sched.sync_with_source(), 0u);
  EXPECT_EQ(drain(sched, 1).size(), src.num_tbs());
}

// Regression: a request admitted mid-pass must not be dealt into cores
// carved exclusively for other requests - with every core carved it gets a
// single home core (bounded disruption), never a full-machine spread.
TEST(TbSchedulerInject, MidPassArrivalDoesNotFloodCarvedGroups) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  // Carves {0,1} -> request 0 and {2,3} -> request 1.
  TbScheduler sched(src, 4, TbDispatch::kPartitionedStealing,
                    RequestDispatch::kPartitioned);
  std::vector<std::uint64_t> before(4);
  for (std::uint32_t c = 0; c < 4; ++c) before[c] = sched.remaining_for(c);

  src.add(2, shift_to_slot(a.op, 2), a.mapping);
  src.commit();
  ASSERT_GT(sched.sync_with_source(), 0u);
  std::uint32_t grew = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (sched.remaining_for(c) > before[c]) ++grew;
  }
  EXPECT_EQ(grew, 1u);  // one home core, not a spread over carved groups
}

// Regression: kPartitioned must keep per-core queues even under
// kGlobalQueue (construction over an empty dynamic source), so a later
// injection still lands in per-request homes instead of one shared queue
// any core drains.
TEST(TbSchedulerInject, PartitionedUnderGlobalQueueKeepsPerCoreQueues) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  TbScheduler sched(src, 4, TbDispatch::kGlobalQueue,
                    RequestDispatch::kPartitioned);
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit();
  ASSERT_GT(sched.sync_with_source(), 0u);
  // With the old single global queue, remaining_for reported the whole
  // backlog for every core; per-core queues spread it instead.
  std::uint64_t spread = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_LT(sched.remaining_for(c), src.num_tbs()) << c;
    spread += sched.remaining_for(c);
  }
  EXPECT_EQ(spread, src.num_tbs());
  std::uint64_t delivered = drain(sched, 4).size();
  EXPECT_EQ(delivered, src.num_tbs());
}

// Regression: kInterleave must round-robin an injected multi-request batch
// across its requests, exactly as construction orders the whole source -
// dealing a concat-ordered batch as-is would run one request back-to-back.
TEST(TbSchedulerInject, InterleaveReordersInjectedBatch) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  TbScheduler sched(src, 1, TbDispatch::kGlobalQueue,
                    RequestDispatch::kInterleave);
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit(FuseOrder::kConcat);  // source order: all of 0, then all of 1
  sched.sync_with_source();
  // Dispatch order alternates requests while both have blocks left.
  const std::vector<std::uint64_t> order = drain(sched, 1);
  ASSERT_EQ(order.size(), src.num_tbs());
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    EXPECT_EQ(src.tb(order[i]).request_id, 0u) << i;
    EXPECT_EQ(src.tb(order[i + 1]).request_id, 1u) << i;
  }
}

TEST(TbSchedulerInject, AllDispatchAndRequestModesDeliverEverything) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  for (const TbDispatch mode :
       {TbDispatch::kStaticBlocked, TbDispatch::kPartitionedStealing,
        TbDispatch::kGlobalQueue}) {
    for (const RequestDispatch rd :
         {RequestDispatch::kShared, RequestDispatch::kInterleave,
          RequestDispatch::kPartitioned}) {
      DynamicTbSource src;
      TbScheduler sched(src, 3, mode, rd);
      src.add(0, shift_to_slot(a.op, 0), a.mapping);
      src.add(1, shift_to_slot(a.op, 1), a.mapping);
      src.commit();
      sched.sync_with_source();
      src.add(2, shift_to_slot(a.op, 2), a.mapping);
      src.commit();
      sched.sync_with_source();
      const std::vector<std::uint64_t> order = drain(sched, 3);
      EXPECT_EQ(order.size(), src.num_tbs());
      for (const std::uint64_t tb : order) sched.mark_complete(tb);
      EXPECT_TRUE(sched.all_complete());
    }
  }
}

// ---------------------------------------------------------------------------
// System admission hook
// ---------------------------------------------------------------------------

// A System over an initially empty dynamic source, fed one operator by the
// admission hook at cycle 0, must match a plain run of the same operator.
TEST(SystemAdmission, HookFedRunMatchesStaticRun) {
  const SimConfig cfg = small_config();
  const Workload wl = Workload::logit(tiny_model(), 128, cfg);

  DynamicTbSource fixed;
  fixed.add(0, shift_to_slot(wl.op, 0), wl.mapping);
  fixed.commit();
  System static_sys(cfg, fixed, &fixed);
  const SimStats want = static_sys.run();

  DynamicTbSource dyn;
  System sys(cfg, dyn, &dyn);
  bool admitted = false;
  const SimStats got = sys.run([&](System& s, Cycle now) {
    if (now == 0 && !admitted) {
      admitted = true;
      dyn.add(0, shift_to_slot(wl.op, 0), wl.mapping);
      dyn.commit();
      s.inject_work();
    }
  });

  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.thread_blocks, want.thread_blocks);
  EXPECT_EQ(got.dram_reads, want.dram_reads);
  EXPECT_EQ(got.counters.counters(), want.counters.counters());
  ASSERT_EQ(got.per_request.size(), 1u);
  EXPECT_GT(got.per_request[0].first_dispatch_cycle, 0u);
  EXPECT_GE(got.per_request[0].last_complete_cycle,
            got.per_request[0].first_dispatch_cycle);
}

// An empty run (no admission) terminates immediately.
TEST(SystemAdmission, EmptySourceDrainsAtCycleZero) {
  const SimConfig cfg = small_config();
  DynamicTbSource dyn;
  System sys(cfg, dyn, &dyn);
  const SimStats s = sys.run();
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.thread_blocks, 0u);
  EXPECT_TRUE(s.per_request.empty());
}

// ---------------------------------------------------------------------------
// Scenario: kContinuous
// ---------------------------------------------------------------------------

void expect_equal_totals(const BatchStats& a, const BatchStats& b) {
  EXPECT_EQ(a.total.cycles, b.total.cycles);
  EXPECT_EQ(a.total.instructions, b.total.instructions);
  EXPECT_EQ(a.total.thread_blocks, b.total.thread_blocks);
  EXPECT_EQ(a.total.dram_reads, b.total.dram_reads);
  EXPECT_EQ(a.total.dram_writes, b.total.dram_writes);
  EXPECT_EQ(a.total.counters.counters(), b.total.counters.counters());
  EXPECT_EQ(a.makespan, b.makespan);
}

// The acceptance anchor: with a single request and no arrivals there is
// never a co-resident request, so every stage handoff happens at a drain
// boundary and the streaming engine degenerates to the exact sequence of
// fused waves kCoScheduled runs.
TEST(ContinuousMode, MatchesCoScheduledAtBatchOneZeroArrivals) {
  const SimConfig cfg = small_config();
  const RequestBatch batch = RequestBatch::uniform(tiny_model(), 1, 128);
  DecodePassConfig pc;
  pc.num_layers = 2;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  const BatchStats cos = DecodePass(batch, pc, cfg).run();
  pc.mode = scenario::ExecutionMode::kContinuous;
  const BatchStats ct = DecodePass(batch, pc, cfg).run();

  expect_equal_totals(ct, cos);
  ASSERT_EQ(ct.per_request.size(), 1u);
  EXPECT_EQ(ct.per_request[0].stats.cycles, cos.per_request[0].stats.cycles);
  EXPECT_EQ(ct.per_request[0].stats.instructions,
            cos.per_request[0].stats.instructions);
  EXPECT_EQ(ct.per_request[0].stats.thread_blocks,
            cos.per_request[0].stats.thread_blocks);
  EXPECT_EQ(ct.per_request[0].stats.dram_reads,
            cos.per_request[0].stats.dram_reads);
  EXPECT_EQ(ct.per_request[0].slice.cycles_in_flight,
            cos.per_request[0].slice.cycles_in_flight);
  EXPECT_EQ(ct.per_request[0].slice.llc_hits,
            cos.per_request[0].slice.llc_hits);
  // Latency spans the whole pass: arrival 0 to the final drain.
  EXPECT_EQ(ct.per_request[0].latency(), ct.makespan);
  EXPECT_EQ(ct.per_request[0].finish_cycle, ct.makespan);
  // One segment per stage, mirroring the wave structure.
  EXPECT_EQ(ct.per_op.size(), cos.per_op.size());
}

// Same anchor across multiple decode steps (the step machinery must not
// perturb the segment/wave correspondence).
TEST(ContinuousMode, MatchesCoScheduledAtBatchOneWithDecodeSteps) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 128, 0, 3}});
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  const BatchStats cos = DecodePass(batch, pc, cfg).run();
  pc.mode = scenario::ExecutionMode::kContinuous;
  const BatchStats ct = DecodePass(batch, pc, cfg).run();
  expect_equal_totals(ct, cos);
  EXPECT_EQ(ct.per_request[0].stats.cycles, cos.per_request[0].stats.cycles);
  // 3 decode steps x 1 layer x 2 stages.
  EXPECT_EQ(ct.per_op.size(), 6u);
}

// Regression: co-resident requests that complete a stage on the same cycle
// must advance together (still streaming), not fall back to a drain - a
// uniform batch used to degenerate into wave-like segments on every tie.
TEST(ContinuousMode, CoResidentRequestsStreamWithoutSegmentBreaks) {
  const SimConfig cfg = small_config();
  const RequestBatch batch = RequestBatch::uniform(tiny_model(), 2, 128);
  DecodePassConfig pc;
  pc.num_layers = 2;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  const BatchStats cos = DecodePass(batch, pc, cfg).run();
  pc.mode = scenario::ExecutionMode::kContinuous;
  const BatchStats ct = DecodePass(batch, pc, cfg).run();
  // The barrier runs 4 waves; the stream should stay in far fewer segments
  // (one while both requests are live, plus at most a lone-tail segment).
  ASSERT_EQ(cos.per_op.size(), 4u);
  EXPECT_LE(ct.per_op.size(), 2u);
}

// The tentpole claim: on a skewed batch the short requests no longer wait
// for the batch's longest member at every stage, so the streaming makespan
// beats the barrier makespan.
TEST(ContinuousMode, StreamsPastTheBarrierOnSkewedBatch) {
  const SimConfig cfg = small_config();
  const RequestBatch batch =
      RequestBatch::with_seq_lens(tiny_model(), {1024, 128, 128, 128});
  DecodePassConfig pc;
  pc.num_layers = 2;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  const BatchStats cos = DecodePass(batch, pc, cfg).run();
  pc.mode = scenario::ExecutionMode::kContinuous;
  const BatchStats ct = DecodePass(batch, pc, cfg).run();

  EXPECT_LT(ct.makespan, cos.makespan);
  // The short requests finish well before the long one.
  const auto& long_req = ct.per_request[0];
  for (std::size_t i = 1; i < ct.per_request.size(); ++i) {
    EXPECT_LT(ct.per_request[i].finish_cycle, long_req.finish_cycle);
  }
  // Attribution is complete: per-request traffic adds up to the totals.
  std::uint64_t reads = 0, writes = 0, tbs = 0, instrs = 0;
  for (const scenario::RequestStats& r : ct.per_request) {
    reads += r.slice.dram_reads;
    writes += r.slice.dram_writes;
    tbs += r.slice.thread_blocks;
    instrs += r.slice.instructions;
  }
  EXPECT_EQ(reads, ct.total.dram_reads);
  EXPECT_EQ(writes, ct.total.dram_writes);
  EXPECT_EQ(tbs, ct.total.thread_blocks);
  EXPECT_EQ(instrs, ct.total.instructions);
}

TEST(ContinuousMode, AdmitsArrivalsMidPassAndTracksLatency) {
  const SimConfig cfg = small_config();
  // Request 1 arrives while request 0 is mid-decode; request 2 arrives
  // after everything drained (an idle gap the stream clock must keep).
  const RequestBatch batch(tiny_model(), {{0, 256, 0, 1},
                                          {1, 128, 2000, 1},
                                          {2, 64, 4'000'000, 1}});
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = scenario::ExecutionMode::kContinuous;
  const BatchStats ct = DecodePass(batch, pc, cfg).run();

  for (const scenario::RequestStats& r : ct.per_request) {
    EXPECT_GE(r.admit_cycle, r.arrival_cycle);
    EXPECT_GT(r.finish_cycle, r.admit_cycle);
    EXPECT_EQ(r.stats.cycles, r.latency());
  }
  // The late request was admitted at its arrival (machine was idle), and
  // the makespan covers the idle gap.
  EXPECT_EQ(ct.per_request[2].admit_cycle, 4'000'000u);
  EXPECT_GT(ct.makespan, 4'000'000u);
  // Its latency excludes the pre-arrival wait.
  EXPECT_LT(ct.per_request[2].latency(), 4'000'000u);
}

TEST(ContinuousMode, BarrierModesRejectArrivals) {
  const SimConfig cfg = small_config();
  const RequestBatch batch(tiny_model(), {{0, 128, 100, 1}});
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  EXPECT_THROW(DecodePass(batch, pc, cfg), std::invalid_argument);
  pc.mode = scenario::ExecutionMode::kIndependent;
  EXPECT_THROW(DecodePass(batch, pc, cfg), std::invalid_argument);
  pc.mode = scenario::ExecutionMode::kContinuous;
  EXPECT_NO_THROW(DecodePass(batch, pc, cfg));
}

// ---------------------------------------------------------------------------
// Admission-hook edge cases. The hook notices arrivals through an
// arrival-sorted cursor and skips its stage-handoff scan while neither the
// scheduler's completion count nor the engine's epoch moved. Each case
// drives a situation where those shortcuts apply and pins the whole run's
// digest as the hook that rescanned every request on every cycle produced
// it.
// ---------------------------------------------------------------------------

// tiny_model: H=2, D=128, fp16 -> 512 bytes per resident KV token per layer.
constexpr std::uint64_t kTinyBytesPerToken = 2ull * 128 * 2;

/// 64-bit FNV-1a of a run's canonical digest: one literal pins every stat,
/// landmark, counter and segment of the run.
std::uint64_t fingerprint(const std::string& digest) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : digest) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One continuous pass with the in-engine ledger auditor on, checked
/// against the post-run contract.
BatchStats run_audited(const std::vector<RequestSpec>& requests,
                       DecodePassConfig pc) {
  pc.mode = scenario::ExecutionMode::kContinuous;
  pc.audit = true;
  const RequestBatch batch(tiny_model(), requests);
  BatchStats stats = DecodePass(batch, pc, small_config()).run();
  const scenario::AuditReport report = scenario::audit_batch(batch, pc, stats);
  EXPECT_TRUE(report.ok()) << report.to_string();
  return stats;
}

void expect_fingerprint(const BatchStats& stats, std::uint64_t pinned) {
  const std::string digest = scenario::batch_stats_digest(stats);
  EXPECT_EQ(fingerprint(digest), pinned) << digest;
}

// Arrivals out of index order with ties: the cursor walks them in arrival
// order, FCFS breaks the ties by index, and the budget queues the rest.
TEST(ContinuousHook, OutOfOrderTiedArrivals) {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.serving.policy = scenario::AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 450 * kTinyBytesPerToken;
  const BatchStats stats = run_audited(
      {{0, 128, 5000, 1}, {1, 256, 0, 2}, {2, 64, 5000, 1}, {3, 128, 0, 1}},
      pc);
  EXPECT_EQ(stats.per_request[1].admit_cycle, 0u);
  EXPECT_EQ(stats.per_request[3].admit_cycle, 0u);
  expect_fingerprint(stats, 0xc5b9685e36896e44ull);
}

// A request arrives on the exact cycle the lone running request's operator
// completes: the arrival turns the drain-boundary handoff into an eager one
// inside the live segment.
TEST(ContinuousHook, ArrivalOnLoneOperatorCompletion) {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  const BatchStats alone = run_audited({{0, 256, 0, 2}}, pc);
  // The first segment holds only request 0's Logit operator.
  const Cycle done = alone.per_op[0].stats.per_request[0].last_complete_cycle;
  ASSERT_GT(done, 0u);
  const BatchStats stats =
      run_audited({{0, 256, 0, 2}, {1, 64, done, 1}}, pc);
  EXPECT_EQ(stats.per_request[1].admit_cycle, done);
  // Request 0's Attend starts in the live segment instead of a fresh one.
  EXPECT_EQ(stats.per_op.size(), alone.per_op.size() - 1);
  expect_fingerprint(stats, 0xa648b5724eee4ea3ull);
}

// Paged and prefix-shared: request 3's first admission refetches the shared
// prefix request 0's preemption swapped out, and its transfer lands on the
// cycle request 4 finishes and request 5 arrives.
TEST(ContinuousHook, RefetchLandsWithArrivalAndFinish) {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.serving.policy = scenario::AdmitPolicy::kShortestRemaining;
  pc.serving.kv_budget_bytes = 600 * kTinyBytesPerToken;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  pc.serving.kv_block_bytes = 4096;
  pc.serving.refetch_cost = 2048;
  pc.serving.kv_share = true;
  std::vector<RequestSpec> reqs = {{0, 512, 0, 2, 0, 256},
                                   {1, 128, 1000, 1},
                                   {2, 64, 3000, 1},
                                   {3, 512, 20000, 1, 0, 256},
                                   {4, 64, 100000, 1}};
  // First run: request 4 runs inside request 3's refetch hold, alone in a
  // fresh segment, so its service time does not depend on when it arrives.
  const BatchStats first = run_audited(reqs, pc);
  const scenario::RequestStats& held = first.per_request[3];
  ASSERT_EQ(held.preemptions, 0u);
  ASSERT_GT(held.refetch_cycles, 0u);
  const Cycle lands = held.admit_cycle + held.refetch_cycles;
  const scenario::RequestStats& filler = first.per_request[4];
  ASSERT_EQ(filler.admit_cycle, filler.arrival_cycle);
  const Cycle service = filler.finish_cycle - filler.arrival_cycle;
  ASSERT_GT(lands, held.admit_cycle + service);

  // Second run: request 4 finishes, and request 5 arrives, as it lands.
  reqs[4].arrival_cycle = lands - service;
  reqs.push_back({5, 64, lands, 1});
  const BatchStats stats = run_audited(reqs, pc);
  EXPECT_EQ(stats.per_request[4].finish_cycle, lands);
  EXPECT_EQ(stats.per_request[3].slice.first_dispatch_cycle,
            held.slice.first_dispatch_cycle);
  EXPECT_EQ(stats.per_request[5].admit_cycle, lands);
  expect_fingerprint(stats, 0x25f57cea8b140ef1ull);
}

// AdmitPolicy::kNone: every arrival is admitted the cycle it is noticed,
// including a tie with a request already running.
TEST(ContinuousHook, UnconditionalStream) {
  DecodePassConfig pc;
  pc.num_layers = 2;
  pc.include_gemv = false;
  const BatchStats stats = run_audited({{0, 256, 0, 2},
                                        {1, 64, 1500, 1},
                                        {2, 128, 1500, 2},
                                        {3, 64, 9000, 1},
                                        {4, 128, 600000, 1}},
                                       pc);
  for (const scenario::RequestStats& r : stats.per_request) {
    EXPECT_EQ(r.admit_cycle, r.arrival_cycle);
  }
  expect_fingerprint(stats, 0x8f81b57378859901ull);
}

// kCoScheduled beyond the golden co/* rows' single shape (uniform 2-request
// batch, round-robin fuse, shared dispatch, one step): a skewed 3-request
// batch where request 1 decodes a second step alone, swept over both fuse
// orders and all three request-dispatch modes. The fingerprints and wave
// names were captured at 30c3a2e, while kCoScheduled waves still ran
// through their own fused source class.
TEST(CoScheduledWave, SkewedBatchAcrossFuseOrderAndDispatch) {
  const RequestBatch batch(tiny_model(),
                           {{0, 64, 0, 1}, {1, 128, 0, 2}, {2, 256, 0, 1}});
  DecodePassConfig pc;
  pc.mode = scenario::ExecutionMode::kCoScheduled;
  pc.num_layers = 2;
  pc.include_gemv = true;
  const std::vector<std::string> want_names = {
      "s0/L0/logitx3", "s0/L0/attendx3", "s0/L0/gemvx3",
      "s0/L1/logitx3", "s0/L1/attendx3", "s0/L1/gemvx3",
      "s1/L0/logitx1", "s1/L0/attendx1", "s1/L0/gemvx1",
      "s1/L1/logitx1", "s1/L1/attendx1", "s1/L1/gemvx1"};
  struct Case {
    FuseOrder order;
    RequestDispatch dispatch;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {FuseOrder::kRoundRobin, RequestDispatch::kShared,
       0x11ac9ebafc09375bull},
      {FuseOrder::kRoundRobin, RequestDispatch::kInterleave,
       0x11ac9ebafc09375bull},
      {FuseOrder::kRoundRobin, RequestDispatch::kPartitioned,
       0xb8d781f5beab0242ull},
      {FuseOrder::kConcat, RequestDispatch::kShared, 0x2e621e492e19630aull},
      {FuseOrder::kConcat, RequestDispatch::kInterleave,
       0x11ac9ebafc09375bull},
      {FuseOrder::kConcat, RequestDispatch::kPartitioned,
       0xb8d781f5beab0242ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.order) + " / " + to_string(c.dispatch));
    pc.interleave = c.order;
    SimConfig cfg = small_config();
    cfg.core.request_dispatch = c.dispatch;
    const BatchStats stats = DecodePass(batch, pc, cfg).run();
    const scenario::AuditReport report =
        scenario::audit_batch(batch, pc, stats);
    EXPECT_TRUE(report.ok()) << report.to_string();
    std::vector<std::string> names;
    for (const ExperimentResult& op : stats.per_op) names.push_back(op.name);
    EXPECT_EQ(names, want_names);
    expect_fingerprint(stats, c.fingerprint);
  }
}

TEST(RequestBatch, RejectsZeroDecodeSteps) {
  EXPECT_THROW(RequestBatch(tiny_model(), {{0, 128, 0, 0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace llamcat
