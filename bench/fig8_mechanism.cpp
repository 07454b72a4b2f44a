// Reproduces paper Figure 8: the mechanism behind the speedups on the
// llama3-70b / 8K benchmark - performance, MSHR entry utilization, L2 hit
// rate, MSHR hit rate and DRAM bandwidth for each policy step
// (unoptimized -> dyncta -> lcs -> dynmg -> +B -> +MA -> +BMA).
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Figure 8: policy mechanism on llama3-70b, L=8K, 16MB LLC",
               args.scale);

  const std::uint64_t L = args.quick() ? 2048 : 8192;
  const std::vector<NamedPolicy> policies = {
      {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dyncta", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs},
      {"lcs", ThrottlePolicy::kLcs, ArbPolicy::kFcfs},
      {"dynmg", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+B", ThrottlePolicy::kDynMg, ArbPolicy::kBalanced},
      {"dynmg+MA", ThrottlePolicy::kDynMg, ArbPolicy::kMa},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };

  // Fig 8 analyses the same MHA-bound regime as Fig 7 (§6.3.3): wave-
  // preserving dispatch (see base_config's comment in bench_util.hpp).
  const auto grid = run_grid(ModelShape::llama3_70b(), {L}, policies,
                             /*llc_mb=*/16, TbDispatch::kPartitionedStealing);

  TextTable t("Fig 8: detailed comparison among policies (llama3-70b, " +
              seq_label(L) + ")");
  t.set_header({"policy", "perf(norm)", "mshr_entry_util", "l2_hit_rate",
                "mshr_hit_rate", "dram_bw(GB/s)", "t_cs", "dram_reads"});
  const SimStats& base = grid[0][0];
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const SimStats& s = grid[p][0];
    t.add_row({policies[p].name, TextTable::num(s.speedup_vs(base)),
               TextTable::num(s.mshr_entry_util),
               TextTable::num(s.l2_hit_rate),
               TextTable::num(s.mshr_hit_rate),
               TextTable::num(s.dram_bw_gbps, 1), TextTable::num(s.t_cs),
               std::to_string(s.dram_reads)});
  }
  t.print(std::cout);

  std::cout
      << "\npaper reference (Fig 8): DRAM accesses roughly constant across\n"
         "policies; MSHR hit rate increases monotonically toward dynmg+BMA\n"
         "while the L2 hit rate decreases (locality captured by the MSHR\n"
         "instead of cache storage); DRAM bandwidth in the 31-38 GB/s band;\n"
         "performance correlates with MSHR entry utilization and bandwidth.\n";
  return 0;
}
