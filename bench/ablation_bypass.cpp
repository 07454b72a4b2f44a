// Ablation: the fill-bypass manager (paper Fig 4 step 5). The paper
// disables bypassing "for fairness and clarity" (§3.2) on the grounds that
// its arbitration gains are orthogonal; this bench tests that decision:
//   - does any bypass policy help the Table 5 machine on the Logit op?
//   - does BMA keep its gain with bypassing enabled (orthogonality)?
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: LLC fill bypass policies (Fig 4 step 5)", args.scale);

  const std::uint64_t L = args.quick() ? 2048 : 8192;
  const ModelShape model = ModelShape::llama3_70b();

  struct Case {
    std::string name;
    BypassPolicy policy;
    double keep_p;
    ArbPolicy arb;
  };
  const std::vector<Case> cases = {
      {"none (paper)", BypassPolicy::kNone, 1.0, ArbPolicy::kFcfs},
      {"all", BypassPolicy::kAll, 0.0, ArbPolicy::kFcfs},
      {"prob(keep 0.5)", BypassPolicy::kProbabilistic, 0.5, ArbPolicy::kFcfs},
      {"reuse-history", BypassPolicy::kReuseHistory, 1.0, ArbPolicy::kFcfs},
      {"none + BMA", BypassPolicy::kNone, 1.0, ArbPolicy::kBma},
      {"reuse-history + BMA", BypassPolicy::kReuseHistory, 1.0,
       ArbPolicy::kBma},
  };

  std::vector<ExperimentSpec> specs;
  for (const auto& c : cases) {
    SimConfig cfg =
        with_policies(mha_bound_config(), ThrottlePolicy::kDynMg, c.arb);
    cfg.llc.bypass.policy = c.policy;
    cfg.llc.bypass.keep_probability = c.keep_p;
    specs.push_back({c.name, cfg, Workload::logit(model, L, cfg)});
  }
  const auto results = run_experiments(specs, 0, /*verbose=*/true);

  TextTable t("bypass policies (llama3-70b " + seq_label(L) +
              ", dynmg, MHA-bound regime)");
  t.set_header({"policy", "speedup vs none", "bypassed_fills", "l2_hit_rate",
                "mshr_hit_rate", "dram_reads"});
  for (const auto& r : results) {
    t.add_row({r.name, TextTable::num(r.stats.speedup_vs(results[0].stats)),
               std::to_string(r.stats.counters.get("llc.bypassed_fills")),
               TextTable::num(r.stats.l2_hit_rate),
               TextTable::num(r.stats.mshr_hit_rate),
               std::to_string(r.stats.dram_reads)});
  }
  t.print(std::cout);

  const double bma_gain =
      results[4].stats.speedup_vs(results[0].stats);
  const double bma_gain_with_bypass =
      results[5].stats.speedup_vs(results[3].stats);
  std::cout << "\nBMA gain without bypass: " << bma_gain
            << "x, with reuse-history bypass: " << bma_gain_with_bypass
            << "x\n(the paper's orthogonality assumption holds if these are "
               "close)\n";
  return 0;
}
