// A fixed co-scheduled wave - a DynamicTbSource with every operator added
// and then one commit(order): slot shifting, interleaving, provenance tags,
// address attribution, and the key equivalence - a single-operator wave run
// through System is bit-identical to the plain TraceGen run.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/dynamic_source.hpp"

namespace llamcat {
namespace {

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

TEST(ShiftToSlot, MovesEveryTensorBaseBySlotStride) {
  const OperatorSpec base = OperatorSpec::logit(tiny_model(), 128);
  const OperatorSpec moved = shift_to_slot(base, 3);
  EXPECT_EQ(moved.q_base, base.q_base + 3 * kSlotStride);
  EXPECT_EQ(moved.kv_base, base.kv_base + 3 * kSlotStride);
  EXPECT_EQ(moved.s_base, base.s_base + 3 * kSlotStride);
  EXPECT_EQ(moved.out_base, base.out_base + 3 * kSlotStride);
  // Slot 0 is the identity.
  EXPECT_EQ(shift_to_slot(base, 0).kv_base, base.kv_base);
}

TEST(FusedWave, RoundRobinInterleavesAndTagsProvenance) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  const Workload b = Workload::logit(tiny_model(), 256, cfg);

  DynamicTbSource src;
  src.add(10, shift_to_slot(a.op, 0), a.mapping);
  src.add(20, shift_to_slot(b.op, 1), b.mapping);
  src.commit(FuseOrder::kRoundRobin);

  const TraceGen ga(shift_to_slot(a.op, 0), a.mapping);
  const TraceGen gb(shift_to_slot(b.op, 1), b.mapping);
  ASSERT_EQ(src.num_tbs(), ga.num_tbs() + gb.num_tbs());

  // While both operators have blocks left, the order alternates a,b,a,b...
  const std::uint64_t common = 2 * std::min(ga.num_tbs(), gb.num_tbs());
  for (std::uint64_t i = 0; i < common; ++i) {
    const TbDesc& d = src.tb(i);
    EXPECT_EQ(d.id, i);  // globally renumbered
    EXPECT_EQ(d.request_id, i % 2 == 0 ? 10u : 20u);
    EXPECT_EQ(d.source_op, i % 2);
    // Geometry and instruction streams delegate to the right sub-source.
    const TraceGen& g = i % 2 == 0 ? ga : gb;
    const std::uint64_t local = i / 2;
    EXPECT_EQ(d.h, g.tb(local).h);
    EXPECT_EQ(d.l_begin, g.tb(local).l_begin);
    ASSERT_EQ(src.instr_count(i), g.instr_count(local));
    const Instr x = src.instr_at(i, 0);
    const Instr y = g.instr_at(local, 0);
    EXPECT_EQ(x.line_addr, y.line_addr);
    EXPECT_EQ(x.kind, y.kind);
  }
  // The longer operator's tail follows once the shorter drains.
  EXPECT_EQ(src.tb(src.num_tbs() - 1).request_id, 20u);
}

TEST(FusedWave, ConcatKeepsOperatorMajorOrder) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  src.add(1, shift_to_slot(a.op, 1), a.mapping);
  src.commit(FuseOrder::kConcat);
  const std::uint64_t half = src.num_tbs() / 2;
  for (std::uint64_t i = 0; i < src.num_tbs(); ++i) {
    EXPECT_EQ(src.tb(i).request_id, i < half ? 0u : 1u);
  }
}

TEST(FusedWave, AttributesAddressesToOwningRequest) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(5, shift_to_slot(a.op, 0), a.mapping);
  src.add(9, shift_to_slot(a.op, 2), a.mapping);
  src.commit(FuseOrder::kRoundRobin);

  ASSERT_EQ(src.num_requests(), 2u);
  EXPECT_EQ(src.request_id_at(0), 5u);
  EXPECT_EQ(src.request_id_at(1), 9u);
  EXPECT_EQ(src.request_index_of(a.op.kv_base), 0u);
  EXPECT_EQ(src.request_index_of(a.op.kv_base + 2 * kSlotStride), 1u);
  // Slot 1 was never claimed; slot 3 is beyond both.
  EXPECT_EQ(src.request_index_of(a.op.kv_base + kSlotStride), kNoRequest);
  EXPECT_EQ(src.request_index_of(a.op.kv_base + 3 * kSlotStride), kNoRequest);
}

TEST(FusedWave, RejectsSlotAliasingAcrossRequests) {
  const SimConfig cfg = small_config();
  const Workload a = Workload::logit(tiny_model(), 128, cfg);
  DynamicTbSource src;
  src.add(0, shift_to_slot(a.op, 0), a.mapping);
  // Same request may share its slot (logit + attend of one layer)...
  EXPECT_NO_THROW(src.add(0, shift_to_slot(a.op, 0), a.mapping));
  // ...another request may not: attribution would be ambiguous.
  EXPECT_THROW(src.add(1, shift_to_slot(a.op, 0), a.mapping),
               std::invalid_argument);
  // The rejected operator was not staged: the wave holds request 0's two.
  EXPECT_EQ(src.num_ops(), 2u);
  src.commit(FuseOrder::kRoundRobin);
}

// The load-bearing equivalence: one operator committed alone and run through
// System must reproduce the plain single-source simulation exactly - this
// anchors coscheduled == independent at batch size 1.
TEST(FusedWave, SingleOpSystemRunMatchesPlainRun) {
  const SimConfig cfg = small_config();
  const Workload wl = Workload::logit(tiny_model(), 128, cfg);
  const SimStats plain = run_simulation(cfg, wl);

  DynamicTbSource src;
  src.add(0, wl.op, wl.mapping);
  src.commit(FuseOrder::kRoundRobin);
  System sys(cfg, src, &src);
  const SimStats fused = sys.run();

  EXPECT_EQ(fused.cycles, plain.cycles);
  EXPECT_EQ(fused.instructions, plain.instructions);
  EXPECT_EQ(fused.thread_blocks, plain.thread_blocks);
  EXPECT_EQ(fused.dram_reads, plain.dram_reads);
  EXPECT_EQ(fused.dram_writes, plain.dram_writes);
  EXPECT_EQ(fused.counters.counters(), plain.counters.counters());

  // And the attribution covers the whole run: one request owns everything.
  ASSERT_EQ(fused.per_request.size(), 1u);
  const RequestSlice& rs = fused.per_request[0];
  EXPECT_EQ(rs.request_id, 0u);
  EXPECT_EQ(rs.instructions, fused.instructions);
  EXPECT_EQ(rs.thread_blocks, fused.thread_blocks);
  EXPECT_EQ(rs.dram_reads, fused.dram_reads);
  EXPECT_EQ(rs.llc_lookups, fused.counters.get("llc.lookups"));
  EXPECT_EQ(rs.llc_hits, fused.counters.get("llc.hits"));
  EXPECT_GT(rs.cycles_in_flight, 0u);
  EXPECT_LE(rs.cycles_in_flight, fused.cycles);
}

}  // namespace
}  // namespace llamcat
