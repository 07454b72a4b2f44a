// Ablation: thread-block dispatch structure (the baseline-pathology study
// behind §6.4) and the dynmg temporal parameters (Table 2 sweep).
//
// The paper's baseline reads per-core trace files whose live thread blocks
// "span a wide range"; an idealized dynamic scheduler hides the working-set
// pathology entirely. This ablation quantifies that: the same workload under
// the three dispatch modes, unoptimized vs dynmg+BMA.
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

namespace {
const char* dispatch_name(TbDispatch d) {
  switch (d) {
    case TbDispatch::kStaticBlocked: return "static-blocked (paper traces)";
    case TbDispatch::kPartitionedStealing: return "wave-round-robin";
    case TbDispatch::kGlobalQueue: return "global-queue (idealized)";
  }
  return "?";
}
}  // namespace

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: TB dispatch structure + throttling periods",
               args.scale);

  const std::uint64_t L = args.quick() ? 2048 : 8192;
  const ModelShape model = ModelShape::llama3_70b();

  {
    std::vector<ExperimentSpec> specs;
    const TbDispatch modes[] = {TbDispatch::kStaticBlocked,
                                TbDispatch::kPartitionedStealing,
                                TbDispatch::kGlobalQueue};
    for (TbDispatch d : modes) {
      for (const auto& [name, thr, arb] : std::vector<NamedPolicy>{
               {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
               {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma}}) {
        SimConfig cfg = with_policies(base_config(), thr, arb);
        cfg.core.tb_dispatch = d;
        specs.push_back(ExperimentSpec{name, cfg,
                                       Workload::logit(model, L, cfg)});
      }
    }
    const auto res = run_experiments(specs, 0, true);
    TextTable t("dispatch structure vs policy effect (llama3-70b " +
                seq_label(L) + ", 16MB)");
    t.set_header({"dispatch", "unopt cycles", "dynmg+BMA cycles", "speedup",
                  "unopt dram_reads", "BMA dram_reads"});
    for (int i = 0; i < 3; ++i) {
      const SimStats& u = res[static_cast<std::size_t>(2 * i)].stats;
      const SimStats& o = res[static_cast<std::size_t>(2 * i + 1)].stats;
      t.add_row({dispatch_name(modes[i]), std::to_string(u.cycles),
                 std::to_string(o.cycles), TextTable::num(o.speedup_vs(u)),
                 std::to_string(u.dram_reads), std::to_string(o.dram_reads)});
    }
    t.print(std::cout);
  }

  {
    // Table 2 temporal-dimension sweep: sampling period x sub-period.
    std::vector<ExperimentSpec> specs;
    struct P {
      std::uint32_t period, sub;
    };
    const std::vector<P> params = {{1000, 200}, {2000, 400}, {4000, 400},
                                   {2000, 1000}, {8000, 800}};
    for (const P& p : params) {
      SimConfig cfg =
          with_policies(base_config(), ThrottlePolicy::kDynMg, ArbPolicy::kBma);
      cfg.throttle.sampling_period = p.period;
      cfg.throttle.sub_period = p.sub;
      specs.push_back(
          ExperimentSpec{std::to_string(p.period) + "/" + std::to_string(p.sub),
                         cfg, Workload::logit(model, L, cfg)});
    }
    const auto res = run_experiments(specs, 0, true);
    TextTable t("dynmg temporal parameters (paper Table 2 swept optimum: "
                "2000/400)");
    t.set_header({"period/sub", "cycles", "t_cs", "mshr_hit_rate"});
    for (std::size_t i = 0; i < res.size(); ++i) {
      const SimStats& s = res[i].stats;
      t.add_row({res[i].name, std::to_string(s.cycles),
                 TextTable::num(s.t_cs), TextTable::num(s.mshr_hit_rate)});
    }
    t.print(std::cout);
  }
  return 0;
}
