// Ablation (beyond the paper's figures, motivated by §2.4): how MSHR
// numEntry / numTarget sizing moves the miss-handling-throughput bottleneck,
// and the §3.3 claim that the gains hold under both request-response
// arbitration policies.
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: MSHR dimensions + request-response arbitration",
               args.scale);

  const std::uint64_t L = args.quick() ? 1024 : 4096;
  const ModelShape model = ModelShape::llama3_70b();

  {
    std::vector<ExperimentSpec> specs;
    const std::vector<std::uint32_t> entries = {2, 4, 6, 12, 24};
    for (std::uint32_t e : entries) {
      SimConfig cfg = base_config();
      cfg.llc.mshr_entries = e;
      specs.push_back(ExperimentSpec{"entries=" + std::to_string(e), cfg,
                                     Workload::logit(model, L, cfg)});
    }
    const auto res = run_experiments(specs, 0, true);
    TextTable t("numEntry sweep (numTarget=8, unoptimized, llama3-70b " +
                seq_label(L) + ") - entries gate DRAM bandwidth (§2.4)");
    t.set_header({"entries/slice", "cycles", "dram_bw(GB/s)", "t_cs",
                  "mshr_entry_util"});
    for (std::size_t i = 0; i < res.size(); ++i) {
      const SimStats& s = res[i].stats;
      t.add_row({std::to_string(entries[i]), std::to_string(s.cycles),
                 TextTable::num(s.dram_bw_gbps, 1), TextTable::num(s.t_cs),
                 TextTable::num(s.mshr_entry_util)});
    }
    t.print(std::cout);
  }

  {
    std::vector<ExperimentSpec> specs;
    const std::vector<std::uint32_t> targets = {2, 4, 8, 16};
    for (std::uint32_t tg : targets) {
      SimConfig cfg = base_config();
      cfg.llc.mshr_targets = tg;
      specs.push_back(ExperimentSpec{"targets=" + std::to_string(tg), cfg,
                                     Workload::logit(model, L, cfg)});
    }
    const auto res = run_experiments(specs, 0, true);
    TextTable t("numTarget sweep (numEntry=6) - target exhaustion stalls");
    t.set_header({"targets/entry", "cycles", "stall_target", "mshr_hit_rate"});
    for (std::size_t i = 0; i < res.size(); ++i) {
      const SimStats& s = res[i].stats;
      t.add_row({std::to_string(targets[i]), std::to_string(s.cycles),
                 std::to_string(s.counters.get("llc.stall_target")),
                 TextTable::num(s.mshr_hit_rate)});
    }
    t.print(std::cout);
  }

  {
    // §3.3: "our proposed architectural enhancements yield similar
    // performance gains under both request-response arbitration policies."
    std::vector<ExperimentSpec> specs;
    for (RespArbPolicy resp :
         {RespArbPolicy::kResponseFirst, RespArbPolicy::kRequestFirst}) {
      for (const auto& [name, thr, arb] : std::vector<NamedPolicy>{
               {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
               {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma}}) {
        SimConfig cfg = with_policies(base_config(), thr, arb, resp);
        specs.push_back(ExperimentSpec{to_string(resp) + "/" + name, cfg,
                                       Workload::logit(model, L, cfg)});
      }
    }
    const auto res = run_experiments(specs, 0, true);
    TextTable t("request-response arbitration (§3.3): gain similarity");
    t.set_header({"resp-arb", "unopt cycles", "dynmg+BMA cycles", "speedup"});
    for (int i = 0; i < 2; ++i) {
      const SimStats& u = res[static_cast<std::size_t>(2 * i)].stats;
      const SimStats& o = res[static_cast<std::size_t>(2 * i + 1)].stats;
      t.add_row({i == 0 ? "response-first" : "request-first",
                 std::to_string(u.cycles), std::to_string(o.cycles),
                 TextTable::num(o.speedup_vs(u))});
    }
    t.print(std::cout);
  }
  return 0;
}
