// Decode pipeline: one token's attention step (Logit -> Attend) across the
// model zoo, with energy. This is the workload the paper's introduction
// motivates - KV-cache-bound decode - extended past the paper's Logit-only
// evaluation to the full attention pipeline and to several GQA geometries.
#include <iostream>
#include <vector>

#include "sim/energy.hpp"
#include "sim/experiment.hpp"

int main() {
  using namespace llamcat;

  const SimConfig base = SimConfig::table5();
  const SimConfig tuned =
      with_policies(base, ThrottlePolicy::kDynMg, ArbPolicy::kBma);
  const std::uint64_t L = 4096;

  std::cout << "decode attention step (Logit + Attend), L=" << L
            << ", Table 5 machine\n"
            << "model        policy     cycles     ms/token  mJ/token  "
               "tok/s(attn-only)\n"
            << "----------------------------------------------------------"
               "------------\n";

  for (const ModelShape& model :
       {ModelShape::llama3_8b(), ModelShape::llama3_70b(),
        ModelShape::llama3_405b(), ModelShape::gemma2_27b()}) {
    for (const SimConfig& cfg : {base, tuned}) {
      // The stages run on fresh machines, independently: the step's
      // cycles, time and energy are the sums over its stages.
      std::vector<ExperimentSpec> specs;
      for (Workload& wl : decode_attention_step(model, L, cfg)) {
        specs.push_back({to_string(wl.op.kind), cfg, std::move(wl)});
      }
      Cycle cycles = 0;
      double seconds = 0.0;
      double energy_j = 0.0;
      for (const ExperimentResult& op : run_experiments(specs)) {
        cycles += op.stats.cycles;
        seconds += op.stats.seconds();
        energy_j += estimate_energy(EnergyConfig{}, cfg, op.stats).total_j();
      }
      const double ms = seconds * 1e3;
      std::cout.setf(std::ios::left);
      std::cout.width(13);
      std::cout << model.name;
      std::cout.width(11);
      std::cout << (cfg.throttle.policy == ThrottlePolicy::kNone ? "unopt"
                                                                 : "dynmg+BMA");
      std::cout.width(11);
      std::cout << cycles;
      std::cout.width(10);
      std::cout << ms;
      std::cout.width(10);
      std::cout << energy_j * 1e3;
      std::cout << (ms > 0 ? 1e3 / ms : 0.0) << "\n";
    }
  }

  std::cout << "\nNote: per-token time counts only the attention operators\n"
               "(the paper's focus); GEMM/GEMV layers would add on top.\n";
  return 0;
}
