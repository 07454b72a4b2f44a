// Ablation: LLC replacement / insertion policy under both of the paper's
// regimes. The paper fixes LRU + MRU-insert for the LLC (Table 5); this
// bench checks how much that choice matters relative to the arbitration
// and throttling policies the paper studies (expected: little in the
// MHA-bound regime - locality there lives in the MSHRs - and visibly more
// under capacity pressure).
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Ablation: LLC replacement policies", args.scale);

  const ModelShape model = ModelShape::llama3_70b();

  struct Case {
    std::string name;
    ReplPolicy repl;
    InsertPolicy insert;
  };
  const std::vector<Case> cases = {
      {"lru/mru (paper)", ReplPolicy::kLru, InsertPolicy::kMru},
      {"lru/streaming", ReplPolicy::kLru, InsertPolicy::kStreaming},
      {"tree-plru/mru", ReplPolicy::kTreePlru, InsertPolicy::kMru},
      {"srrip/mru", ReplPolicy::kSrrip, InsertPolicy::kMru},
      {"srrip/streaming", ReplPolicy::kSrrip, InsertPolicy::kStreaming},
      {"fifo", ReplPolicy::kFifo, InsertPolicy::kMru},
      {"random", ReplPolicy::kRandom, InsertPolicy::kMru},
  };

  struct Regime {
    std::string name;
    SimConfig cfg;
    std::uint64_t L;
  };
  const std::uint64_t L_mha = args.quick() ? 2048 : 8192;
  const std::uint64_t L_cap = args.quick() ? 4096 : 16384;
  const std::vector<Regime> regimes = {
      {"MHA-bound (wave, " + seq_label(L_mha) + ")", mha_bound_config(),
       L_mha},
      {"capacity (static, " + seq_label(L_cap) + ")", base_config(), L_cap},
  };

  for (const auto& regime : regimes) {
    std::vector<ExperimentSpec> specs;
    for (const auto& c : cases) {
      SimConfig cfg = regime.cfg;
      cfg.llc.repl = c.repl;
      cfg.llc.insert = c.insert;
      specs.push_back({c.name, cfg, Workload::logit(model, regime.L, cfg)});
    }
    const auto results = run_experiments(specs, 0, /*verbose=*/true);

    TextTable t("replacement policies, " + regime.name);
    t.set_header({"policy", "speedup vs paper", "l2_hit_rate",
                  "mshr_hit_rate", "dram_reads"});
    for (const auto& r : results) {
      t.add_row({r.name, TextTable::num(r.stats.speedup_vs(results[0].stats)),
                 TextTable::num(r.stats.l2_hit_rate),
                 TextTable::num(r.stats.mshr_hit_rate),
                 std::to_string(r.stats.dram_reads)});
    }
    t.print(std::cout);
  }
  return 0;
}
