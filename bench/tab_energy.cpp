// Extension table: energy and energy-delay product per policy (the paper
// reports speedup and area only; energy is the natural third axis for an
// LLC study - throttling trades parallelism for locality, and locality is
// energy). Uses the post-hoc energy model in sim/energy.hpp.
#include "bench_util.hpp"
#include "sim/energy.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Extension: energy per policy (post-hoc model)", args.scale);

  const std::uint64_t L = args.quick() ? 2048 : 8192;
  const ModelShape model = ModelShape::llama3_70b();
  const EnergyConfig energy;

  const std::vector<NamedPolicy> policies = {
      {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dyncta", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs},
      {"lcs", ThrottlePolicy::kLcs, ArbPolicy::kFcfs},
      {"dynmg", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };

  std::vector<ExperimentSpec> specs;
  for (const auto& p : policies) {
    SimConfig cfg = with_policies(mha_bound_config(), p.thr, p.arb);
    specs.push_back({p.name, cfg, Workload::logit(model, L, cfg)});
  }
  const auto results = run_experiments(specs, 0, /*verbose=*/true);
  const SimConfig report_cfg = mha_bound_config();

  TextTable t("energy per policy (llama3-70b " + seq_label(L) +
              ", MHA-bound regime)");
  t.set_header({"policy", "speedup", "total_mJ", "dram_mJ", "llc_mJ",
                "avg_W", "EDP(norm)", "pJ/B(dram)"});
  const EnergyReport base_e =
      estimate_energy(energy, report_cfg, results[0].stats);
  for (const auto& r : results) {
    const EnergyReport e = estimate_energy(energy, report_cfg, r.stats);
    t.add_row({r.name, TextTable::num(r.stats.speedup_vs(results[0].stats)),
               TextTable::num(e.total_j() * 1e3),
               TextTable::num((e.dram_dynamic_j + e.dram_static_j) * 1e3),
               TextTable::num(e.llc_j * 1e3),
               TextTable::num(e.avg_power_w()),
               TextTable::num(e.edp_js() / base_e.edp_js()),
               TextTable::num(e.dram_pj_per_byte(r.stats), 1)});
  }
  t.print(std::cout);

  std::cout << "\nreading guide: a policy that wins wall-clock without "
               "raising DRAM traffic\nlowers EDP super-linearly (static "
               "energy scales with time); constants are\ncalibration-grade, "
               "so compare rows, not absolute joules.\n";
  return 0;
}
