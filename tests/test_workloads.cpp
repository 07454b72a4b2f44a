// Workload-level tests: the GEMV (no-GQA) operator, the model zoo, the
// decode attention step, and the §6.3.3 locality property - GQA sharing
// is what produces cache/MSHR hits on KV traffic; a GEMV with the same
// traffic volume has none to give.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {
namespace {

SimConfig small_cfg() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 2ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 50'000'000;
  return cfg;
}

// -------------------------------------------------------------- model zoo --

TEST(ModelZoo, ShapesMatchPublishedConfigs) {
  // (name, H, G, D): H*G = query heads.
  EXPECT_EQ(ModelShape::llama3_8b().num_kv_heads, 8u);
  EXPECT_EQ(ModelShape::llama3_8b().group_size, 4u);    // 32 query heads
  EXPECT_EQ(ModelShape::llama3_70b().group_size, 8u);   // 64 query heads
  EXPECT_EQ(ModelShape::llama3_405b().group_size, 16u); // 128 query heads
  EXPECT_EQ(ModelShape::gemma2_27b().num_kv_heads, 16u);
  EXPECT_EQ(ModelShape::gemma2_27b().group_size, 2u);   // 32 query heads
  EXPECT_EQ(ModelShape::qwen2_72b().group_size, 8u);    // 64 query heads
  for (const ModelShape& m :
       {ModelShape::llama3_8b(), ModelShape::llama3_70b(),
        ModelShape::llama3_405b(), ModelShape::gemma2_27b(),
        ModelShape::qwen2_72b()}) {
    EXPECT_EQ(m.head_dim, 128u) << m.name;
    EXPECT_NO_THROW(OperatorSpec::logit(m, 1024).validate()) << m.name;
  }
}

TEST(ModelZoo, NamesAreDistinct) {
  std::set<std::string> names;
  for (const ModelShape& m :
       {ModelShape::llama3_8b(), ModelShape::llama3_70b(),
        ModelShape::llama3_405b(), ModelShape::gemma2_27b(),
        ModelShape::qwen2_72b()}) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
}

// ------------------------------------------------------------------ GEMV --

TEST(Gemv, IsDegenerateLogit) {
  const OperatorSpec spec = OperatorSpec::gemv(2048, 256);
  EXPECT_EQ(spec.kind, OpKind::kLogit);
  EXPECT_EQ(spec.model.num_kv_heads, 1u);
  EXPECT_EQ(spec.model.group_size, 1u);
  EXPECT_EQ(spec.model.head_dim, 256u);
  EXPECT_EQ(spec.seq_len, 2048u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(Gemv, TrafficMatchesClosedForm) {
  // y[2048] = W[2048,256] x[256], fp16: W is 2048*256*2 B = 16384 lines,
  // x is 256*2/64 = 8 lines, y is 2048*2/64 = 64 lines.
  const SimConfig cfg = small_cfg();
  const Workload wl = Workload::gemv(2048, 256, cfg);
  const TrafficEstimate est = estimate_traffic(wl.op, wl.mapping);
  EXPECT_EQ(est.unique_store_lines, 64u);
  // Unique loads = W + x lines.
  EXPECT_EQ(est.unique_load_lines, 16384u + 8u);
}

TEST(Gemv, NoSharingMeansReuseFactorNearOne) {
  const SimConfig cfg = small_cfg();
  const Workload gemv = Workload::gemv(2048, 256, cfg);
  const TrafficEstimate est = estimate_traffic(gemv.op, gemv.mapping);
  // Each weight line is loaded exactly once; only the small x vector is
  // reloaded per thread block.
  EXPECT_LT(est.reuse_factor(), 1.1);

  // Contrast: a GQA logit with G=4 loads each K line ~4 times.
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  const Workload logit = Workload::logit(m, 1024, cfg);
  const TrafficEstimate gqa = estimate_traffic(logit.op, logit.mapping);
  EXPECT_GT(gqa.reuse_factor(), 2.0);
}

TEST(Gemv, RunsToCompletionWithConservation) {
  const SimConfig cfg = small_cfg();
  const Workload wl = Workload::gemv(1024, 256, cfg);
  const SimStats s = run_simulation(cfg, wl);
  const auto& c = s.counters;
  EXPECT_EQ(c.get("llc.requests_in"), c.get("llc.requests_served"));
  EXPECT_EQ(c.get("llc.mshr_hits") + c.get("llc.mshr_allocs"),
            c.get("llc.misses"));
}

/// The paper's §6.3.3 claim at test scale: "Cache hits and MSHR hits ...
/// are mostly a result of GQA, since non-GQA operators do not share
/// activation across heads." A GEMV's KV-side (weight) traffic must show
/// essentially no L2 or MSHR locality, unlike a GQA logit of similar size.
TEST(Gemv, NoGqaMeansNoKvLocality) {
  SimConfig cfg = small_cfg();
  cfg.core.tb_dispatch = TbDispatch::kPartitionedStealing;

  // GEMV: 1024x512 fp16 weights = 8K lines streamed once.
  const SimStats gemv =
      run_simulation(cfg, Workload::gemv(1024, 512, cfg));

  // GQA logit with the same KV volume: H=2, G=4, L=2048 -> K = 2*2048*128
  // fp16 = 8K lines, each wanted by 4 query heads.
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  const SimStats gqa = run_simulation(cfg, Workload::logit(m, 2048, cfg));

  const double gemv_locality = gemv.l2_hit_rate + gemv.mshr_hit_rate;
  const double gqa_locality = gqa.l2_hit_rate + gqa.mshr_hit_rate;
  EXPECT_GT(gqa_locality, gemv_locality + 0.2)
      << "GQA sharing must be the locality source (gemv=" << gemv_locality
      << ", gqa=" << gqa_locality << ")";
}

// -------------------------------------------------------------- pipeline --

TEST(Pipeline, DecodeStepIsLogitThenAttend) {
  const SimConfig cfg = small_cfg();
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  const auto ops = decode_attention_step(m, 512, cfg);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op.kind, OpKind::kLogit);
  EXPECT_EQ(ops[1].op.kind, OpKind::kAttend);
  EXPECT_EQ(ops[0].op.seq_len, ops[1].op.seq_len);
}

}  // namespace
}  // namespace llamcat
