// Ablation: the MA arbiter's speculation hardware (paper §4.3.1). Sweeps
// the hit_buffer and sent_reqs depths and compares against the oracle
// arbiter (ground-truth tag probe) and related-work pickers:
//   - how much prediction accuracy does the 32-entry hit_buffer buy?
//   - is sent_reqs (masking in-flight lookups) load-bearing?
//   - how far is BMA from its own upper bound (oracle)?
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: MA speculation structures vs oracle", args.scale);

  const std::uint64_t L = args.quick() ? 2048 : 8192;
  const ModelShape model = ModelShape::llama3_70b();

  // All cases run dynmg (the paper pairs arbitration with its throttling).
  struct Case {
    std::string name;
    ArbPolicy arb;
    std::uint32_t hit_buffer;
    std::uint32_t sent_reqs;
  };
  const std::vector<Case> cases = {
      {"fcfs (no speculation)", ArbPolicy::kFcfs, 32, 16},
      {"BMA hb=0 (MSHR-only)", ArbPolicy::kBma, 0, 16},
      {"BMA hb=8", ArbPolicy::kBma, 8, 16},
      {"BMA hb=32 (paper)", ArbPolicy::kBma, 32, 16},
      {"BMA hb=128", ArbPolicy::kBma, 128, 16},
      {"BMA sent_reqs=0", ArbPolicy::kBma, 32, 0},
      {"oracle (upper bound)", ArbPolicy::kOracle, 32, 16},
      {"mrpb [9]", ArbPolicy::kMrpb, 32, 16},
      {"random (control)", ArbPolicy::kRandom, 32, 16},
  };

  std::vector<ExperimentSpec> specs;
  for (const auto& c : cases) {
    SimConfig cfg =
        with_policies(mha_bound_config(), ThrottlePolicy::kDynMg, c.arb);
    cfg.arb.hit_buffer_depth = c.hit_buffer;
    cfg.arb.sent_reqs_depth = c.sent_reqs;
    specs.push_back({c.name, cfg, Workload::logit(model, L, cfg)});
  }
  const auto results = run_experiments(specs, 0, /*verbose=*/true);

  TextTable t("speculation ablation (llama3-70b " + seq_label(L) +
              ", dynmg, MHA-bound regime)");
  t.set_header({"arbiter", "speedup vs fcfs", "mshr_hit_rate", "l2_hit_rate",
                "mshr_entry_util"});
  for (const auto& r : results) {
    t.add_row({r.name, TextTable::num(r.stats.speedup_vs(results[0].stats)),
               TextTable::num(r.stats.mshr_hit_rate),
               TextTable::num(r.stats.l2_hit_rate),
               TextTable::num(r.stats.mshr_entry_util)});
  }
  t.print(std::cout);

  std::cout << "\nreading guide: 'oracle' bounds what better prediction "
               "could buy over the\npaper's hit_buffer+sent_reqs; hb=0 "
               "isolates the MSHR_snapshot path; the\nsent_reqs=0 row shows "
               "the cost of arbitrating on a stale snapshot (paper\n"
               "\xc2\xa7" "4.3.1's motivation for the structure).\n";
  return 0;
}
