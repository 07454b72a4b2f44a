// Policy explorer: run one Logit operator under a chosen policy combination
// and dump every counter. Usage:
//   policy_explorer [--model=NAME] [--seq=N] [--throttle=T] [--arb=A]
//                   [--llc-mb=N] [--full]
// Defaults: llama3-70b, L=4096, unopt+fcfs, a 16 MiB LLC. A malformed
// value or an invalid configuration exits 2 with an "error: ..." line.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "sim/experiment.hpp"

using namespace llamcat;

int main(int argc, char** argv) {
  ExplorerOptions opt;
  const std::vector<CliFlag> flags = explorer_flags(opt);
  const std::string usage =
      flags_usage("usage: policy_explorer [--flag=value ...]\n", flags);
  if (const auto stop = parse_command_line(flags, usage, {argv + 1, argv + argc},
                                           std::cout, std::cerr)) {
    return *stop;
  }

  SimConfig cfg = SimConfig::table5();
  cfg.llc.size_bytes = opt.llc_bytes;
  cfg = with_policies(cfg, opt.throttle, opt.arb);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    return *report_usage_stop(
        false, std::string("invalid configuration: ") + e.what(), usage,
        std::cout, std::cerr);
  }
  const Workload wl = Workload::logit(opt.model, opt.seq_len, cfg);

  std::cout << "config: " << cfg.summary() << "  workload: " << opt.model.name
            << " L=" << opt.seq_len << " l_tile=" << wl.mapping.l_tile << "\n";
  const SimStats s = run_simulation(cfg, wl);
  s.print(std::cout);
  if (opt.full) {
    std::cout << "\n-- counters --\n";
    s.counters.print(std::cout, "  ");
  }
  return 0;
}
