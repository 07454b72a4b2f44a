// Unit + property tests: operators, mappings, the mapper's constraints,
// the trace generator vs the closed-form traffic model, trace file I/O.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "trace/dynamic_source.hpp"
#include "trace/mapper.hpp"
#include "trace/trace_io.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {
namespace {

TEST(Operator, ModelShapes) {
  const ModelShape m70 = ModelShape::llama3_70b();
  EXPECT_EQ(m70.num_kv_heads, 8u);
  EXPECT_EQ(m70.group_size, 8u);
  EXPECT_EQ(m70.head_dim, 128u);
  const ModelShape m405 = ModelShape::llama3_405b();
  EXPECT_EQ(m405.group_size, 16u);
}

TEST(Operator, SizesAndAddressing) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  EXPECT_EQ(spec.kv_bytes(), 8ull * 4096 * 128 * 2);
  EXPECT_EQ(spec.q_bytes(), 8ull * 8 * 128 * 2);
  EXPECT_EQ(spec.s_bytes(), 8ull * 8 * 4096 * 2);
  // Tensor regions are disjoint.
  EXPECT_LE(spec.q_base + spec.q_bytes(), spec.kv_base);
  EXPECT_LE(spec.kv_base + spec.kv_bytes(), spec.s_base);
  // Element addressing is row-major.
  EXPECT_EQ(spec.kv_elem(0, 1, 0) - spec.kv_elem(0, 0, 0), 256u);
  EXPECT_EQ(spec.kv_elem(1, 0, 0) - spec.kv_elem(0, 0, 0), 4096u * 256);
}

TEST(Operator, ValidationRejectsOverlap) {
  OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  spec.kv_base = spec.q_base;  // overlap
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Mapping, ConstraintChecks) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  Mapping m;
  m.l_tile = 32;
  EXPECT_NO_THROW(m.validate(spec));
  m.l_tile = 48;  // not a multiple of one output line (32 elems)
  EXPECT_THROW(m.validate(spec), std::invalid_argument);
  m.l_tile = 4096 * 2;  // does not divide seq_len
  EXPECT_THROW(m.validate(spec), std::invalid_argument);
  m = Mapping{};
  m.vector_lanes = 16;  // 32B vector: violates whole-line constraint
  EXPECT_THROW(m.validate(spec), std::invalid_argument);
}

TEST(Mapping, ThreadBlockEnumeration) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 256);
  Mapping m;
  m.l_tile = 32;
  m.order = TbOrder::kHLG;
  const auto tbs = m.thread_blocks(spec);
  EXPECT_EQ(tbs.size(), 8u * 8 * 8);  // H * G * (L / l_tile)
  EXPECT_EQ(tbs.size(), m.num_thread_blocks(spec));
  // Wave order: 8 consecutive TBs share (h, tile) and differ in g.
  for (std::uint32_t g = 0; g < 8; ++g) {
    EXPECT_EQ(tbs[g].h, 0u);
    EXPECT_EQ(tbs[g].l_begin, 0u);
    EXPECT_EQ(tbs[g].g, g);
  }
  // Every (h, g, tile) appears exactly once.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
  for (const auto& tb : tbs) seen.insert({tb.h, tb.g, tb.l_begin});
  EXPECT_EQ(seen.size(), tbs.size());
}

TEST(Mapping, OrderHGLPutsSharersApart) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 256);
  Mapping m;
  m.l_tile = 32;
  m.order = TbOrder::kHGL;
  const auto tbs = m.thread_blocks(spec);
  // Consecutive TBs are same (h,g), consecutive tiles.
  EXPECT_EQ(tbs[0].g, tbs[1].g);
  EXPECT_EQ(tbs[1].l_begin, tbs[0].l_end);
}

// Property: trace generator agrees with the closed-form traffic model.
class TraceVsModel
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*G*/,
                                                 std::uint64_t /*L*/,
                                                 std::uint32_t /*l_tile*/,
                                                 OpKind>> {};

TEST_P(TraceVsModel, InstrCountsMatchModel) {
  const auto [G, L, l_tile, kind] = GetParam();
  ModelShape model = ModelShape::llama3_70b();
  model.num_kv_heads = 2;
  model.group_size = G;
  OperatorSpec spec = kind == OpKind::kLogit
                          ? OperatorSpec::logit(model, L)
                          : OperatorSpec::attend(model, L);
  Mapping m;
  m.l_tile = l_tile;
  if (L % l_tile != 0) GTEST_SKIP();
  TraceGen gen(spec, m);
  const TrafficEstimate est = estimate_traffic(spec, m);

  std::uint64_t loads = 0, stores = 0, computes = 0, compute_cycles = 0;
  std::set<Addr> unique_loads, unique_stores;
  for (std::uint64_t t = 0; t < gen.num_tbs(); ++t) {
    const std::uint32_t n = gen.instr_count(t);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Instr ins = gen.instr_at(t, i);
      switch (ins.kind) {
        case Instr::Kind::kLoad:
          ++loads;
          unique_loads.insert(ins.line_addr);
          EXPECT_EQ(ins.line_addr, line_align(ins.line_addr));
          break;
        case Instr::Kind::kStore:
          ++stores;
          unique_stores.insert(ins.line_addr);
          break;
        case Instr::Kind::kCompute:
          ++computes;
          compute_cycles += ins.cycles;
          break;
      }
    }
  }
  EXPECT_EQ(loads, est.load_line_requests);
  EXPECT_EQ(stores, est.store_line_requests);
  EXPECT_EQ(unique_loads.size(), est.unique_load_lines);
  EXPECT_EQ(unique_stores.size(), est.unique_store_lines);
  EXPECT_EQ(compute_cycles, est.compute_cycles);
  EXPECT_EQ(loads + stores + computes, est.total_instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceVsModel,
    ::testing::Combine(::testing::Values(4u, 8u, 16u),
                       ::testing::Values(128ull, 256ull),
                       ::testing::Values(32u, 64u),
                       ::testing::Values(OpKind::kLogit, OpKind::kAttend)));

TEST(TraceGen, GqaSharersLoadSameKLines) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 64);
  Mapping m;
  m.l_tile = 32;
  TraceGen gen(spec, m);
  // TBs 0 and 1 are (h0, g0, tile0) and (h0, g1, tile0) in HLG order: their
  // K loads are identical, Q and S differ.
  std::set<Addr> k0, k1;
  for (std::uint32_t i = 0; i < gen.instr_count(0); ++i) {
    const Instr ins = gen.instr_at(0, i);
    if (ins.kind == Instr::Kind::kLoad && ins.line_addr >= spec.kv_base)
      k0.insert(ins.line_addr);
  }
  for (std::uint32_t i = 0; i < gen.instr_count(1); ++i) {
    const Instr ins = gen.instr_at(1, i);
    if (ins.kind == Instr::Kind::kLoad && ins.line_addr >= spec.kv_base)
      k1.insert(ins.line_addr);
  }
  EXPECT_EQ(k0, k1);
  EXPECT_EQ(k0.size(), 32u * 4);  // l_tile * (head_dim*2/64)
}

TEST(Mapper, RespectsOutputLineConstraint) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  const SimConfig cfg = SimConfig::table5();
  const MapperResult r = Mapper().search(spec, cfg.core, cfg.llc);
  const std::uint32_t lines = r.mapping.tb_out_lines(spec);
  EXPECT_GE(lines, 1u);
  EXPECT_LE(lines, 2u);
  EXPECT_FALSE(r.rationale.empty());
  EXPECT_GT(r.traffic.min_dram_bytes(), 0u);
}

TEST(Mapper, CostPrefersExploitableSharing) {
  const OperatorSpec spec = OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  const SimConfig cfg = SimConfig::table5();
  Mapping hlg, hgl;
  hlg.order = TbOrder::kHLG;
  hgl.order = TbOrder::kHGL;
  const Mapper mapper;
  EXPECT_LT(mapper.cost(spec, hlg, cfg.core, cfg.llc),
            mapper.cost(spec, hgl, cfg.core, cfg.llc));
}

TEST(TraceIo, RoundTrip) {
  ModelShape model = ModelShape::llama3_70b();
  model.num_kv_heads = 1;
  model.group_size = 2;
  const OperatorSpec spec = OperatorSpec::logit(model, 64);
  Mapping m;
  m.l_tile = 32;
  TraceGen gen(spec, m);

  std::stringstream ss;
  write_trace(ss, gen);
  const auto replay = read_trace(ss);
  ASSERT_EQ(replay->num_tbs(), gen.num_tbs());
  for (std::uint64_t t = 0; t < gen.num_tbs(); ++t) {
    ASSERT_EQ(replay->instr_count(t), gen.instr_count(t)) << "tb " << t;
    EXPECT_EQ(replay->tb(t).h, gen.tb(t).h);
    EXPECT_EQ(replay->tb(t).g, gen.tb(t).g);
    EXPECT_EQ(replay->tb(t).l_begin, gen.tb(t).l_begin);
    for (std::uint32_t i = 0; i < gen.instr_count(t); ++i) {
      const Instr a = gen.instr_at(t, i);
      const Instr b = replay->instr_at(t, i);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.line_addr, b.line_addr);
      if (a.kind == Instr::Kind::kCompute) EXPECT_EQ(a.cycles, b.cycles);
    }
  }
}

// A fused multi-request trace keeps its request/operator provenance across
// a write/read round trip (v2 headers), so replayed traces stay usable for
// co-scheduled simulation and per-request attribution.
TEST(TraceIo, RoundTripPreservesRequestProvenance) {
  ModelShape model = ModelShape::llama3_70b();
  model.num_kv_heads = 1;
  model.group_size = 2;
  Mapping m;
  m.l_tile = 32;
  DynamicTbSource src;
  src.add(4, shift_to_slot(OperatorSpec::logit(model, 64), 0), m);
  src.add(9, shift_to_slot(OperatorSpec::logit(model, 64), 1), m);
  src.commit(FuseOrder::kRoundRobin);

  std::stringstream ss;
  write_trace(ss, src);
  const auto replay = read_trace(ss);
  ASSERT_EQ(replay->num_tbs(), src.num_tbs());
  for (std::uint64_t t = 0; t < src.num_tbs(); ++t) {
    EXPECT_EQ(replay->tb(t).request_id, src.tb(t).request_id);
    EXPECT_EQ(replay->tb(t).source_op, src.tb(t).source_op);
  }
}

// v1 traces (five-field tb headers) still parse; provenance defaults to 0.
TEST(TraceIo, ReadsLegacyV1Headers) {
  std::stringstream v1(
      "# llamcat-trace v1\ntb 0 1 2 0 32\nC 3\nend\n");
  const auto replay = read_trace(v1);
  ASSERT_EQ(replay->num_tbs(), 1u);
  EXPECT_EQ(replay->tb(0).h, 1u);
  EXPECT_EQ(replay->tb(0).request_id, 0u);
  EXPECT_EQ(replay->tb(0).source_op, 0u);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream bad1("not a trace\n");
  EXPECT_THROW(read_trace(bad1), std::runtime_error);
  std::stringstream bad2("# llamcat-trace v1\nL deadbeef\n");
  EXPECT_THROW(read_trace(bad2), std::runtime_error);  // instr outside tb
  std::stringstream bad3("# llamcat-trace v1\ntb 0 0 0 0 32\nX 123\nend\n");
  EXPECT_THROW(read_trace(bad3), std::runtime_error);
  std::stringstream bad4("# llamcat-trace v1\ntb 0 0 0 0 32\nL 40\n");
  EXPECT_THROW(read_trace(bad4), std::runtime_error);  // unterminated
  // A v2 header truncated to v1's five fields is malformed, not a fallback.
  std::stringstream bad5("# llamcat-trace v2\ntb 0 0 0 0 32\nC 1\nend\n");
  EXPECT_THROW(read_trace(bad5), std::runtime_error);
}

}  // namespace
}  // namespace llamcat
