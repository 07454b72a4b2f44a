// Ablation: thread-block trace order (the dataflow dimension of the hybrid
// framework, paper Fig 6). The same Logit operator lowered in different
// loop orders stresses completely different parts of the memory system:
//   kHGL - per-head streaming: each core sweeps L for one (h,g); K-line
//          reuse distance is a full L sweep (capacity pressure).
//   kHLG - wave order: the G thread blocks sharing one KV tile are
//          adjacent (GQA merge locality).
//   kLHG - tile-major: all (h,g) of one l-tile are adjacent; K reuse is
//          intra-core across g (short reuse distance).
// Run under the Fig 9 capacity-pressure machine (static dispatch, 16 MB).
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: trace order x policy under capacity pressure",
               args.scale);

  const std::uint64_t L = args.quick() ? 4096 : 16384;
  const ModelShape model = ModelShape::llama3_70b();

  const std::vector<NamedPolicy> policies = {
      {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dyncta", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs},
      {"dynmg", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  const TbOrder orders[] = {TbOrder::kHGL, TbOrder::kHLG, TbOrder::kLHG};

  std::vector<ExperimentSpec> specs;
  for (const TbOrder order : orders) {
    for (const auto& p : policies) {
      SimConfig cfg = with_policies(base_config(/*llc_mb=*/16), p.thr, p.arb);
      Workload wl = Workload::logit(model, L, cfg);
      wl.mapping.order = order;
      specs.push_back(ExperimentSpec{
          to_string(order) + "/" + p.name, cfg, std::move(wl)});
    }
  }
  const auto results = run_experiments(specs, 0, /*verbose=*/true);

  std::size_t k = 0;
  for (const TbOrder order : orders) {
    TextTable t("order " + to_string(order) + " (llama3-70b " +
                seq_label(L) + ", 16MB, static dispatch)");
    t.set_header({"policy", "speedup vs unopt", "mshr_hit_rate",
                  "l2_hit_rate", "dram_reads", "t_cs"});
    const SimStats& base = results[k].stats;
    for (const auto& p : policies) {
      const SimStats& s = results[k++].stats;
      t.add_row({p.name, TextTable::num(s.speedup_vs(base)),
                 TextTable::num(s.mshr_hit_rate),
                 TextTable::num(s.l2_hit_rate),
                 std::to_string(s.dram_reads), TextTable::num(s.t_cs)});
    }
    t.print(std::cout);
  }
  return 0;
}
