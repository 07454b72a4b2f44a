// Policy explorer: run one workload under a chosen policy combination and
// dump every counter. Usage:
//   policy_explorer [model] [seq_len] [throttle] [arb] [cache_mb] [--full]
//     model    : 70b | 405b            (default 70b)
//     seq_len  : tokens                (default 4096)
//     throttle : unopt|dyncta|lcs|dynmg (default unopt)
//     arb      : fcfs|B|MA|BMA|cobrra  (default fcfs)
//     cache_mb : LLC size in MB        (default 16)
#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/experiment.hpp"

using namespace llamcat;

int main(int argc, char** argv) {
  const std::string model_s = argc > 1 ? argv[1] : "70b";
  const std::uint64_t seq = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4096;
  const std::string thr_s = argc > 3 ? argv[3] : "unopt";
  const std::string arb_s = argc > 4 ? argv[4] : "fcfs";
  const std::uint64_t cache_mb = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 16;
  const bool full = argc > 6 && std::string(argv[6]) == "--full";

  SimConfig cfg = SimConfig::table5();
  cfg.llc.size_bytes = cache_mb << 20;
  // Unknown names fall back to the defaults.
  cfg = with_policies(
      cfg, parse_enum<ThrottlePolicy>(thr_s).value_or(ThrottlePolicy::kNone),
      parse_enum<ArbPolicy>(arb_s).value_or(ArbPolicy::kFcfs));

  const ModelShape model =
      model_s == "405b" ? ModelShape::llama3_405b() : ModelShape::llama3_70b();
  const Workload wl = Workload::logit(model, seq, cfg);

  std::cout << "config: " << cfg.summary() << "  workload: " << model.name
            << " L=" << seq << " l_tile=" << wl.mapping.l_tile << "\n";
  const SimStats s = run_simulation(cfg, wl);
  s.print(std::cout);
  if (full) {
    std::cout << "\n-- counters --\n";
    s.counters.print(std::cout, "  ");
  }
  return 0;
}
