// Reproduces paper Figure 7 (all six panels) in one pass:
//   (a)/(d) throttling policies dyncta / lcs / dynmg vs unoptimized
//   (b)/(e) arbitration policies cobrra / B / MA / BMA, each + dynmg,
//           normalized against dynmg-only
//   (c)/(f) cumulative speedups dynmg, +B, +MA, +BMA vs unoptimized
// Workload: Logit operator, llama3-70b (H8/G8/D128) and llama3-405b
// (H8/G16/D128), 16MB LLC, Table 5 machine.
#include <map>

#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Figure 7: throttling & arbitration policy speedups (Logit)",
               args.scale);

  const std::vector<std::uint64_t> seqs =
      args.quick() ? std::vector<std::uint64_t>{1024, 2048}
                   : std::vector<std::uint64_t>{4096, 8192, 16384};

  const std::vector<NamedPolicy> policies = {
      {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dyncta", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs},
      {"lcs", ThrottlePolicy::kLcs, ArbPolicy::kFcfs},
      {"dynmg", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+cobrra", ThrottlePolicy::kDynMg, ArbPolicy::kCobrra},
      {"dynmg+B", ThrottlePolicy::kDynMg, ArbPolicy::kBalanced},
      {"dynmg+MA", ThrottlePolicy::kDynMg, ArbPolicy::kMa},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  enum { kUnopt, kDyncta, kLcs, kDynmg, kCobrra, kB, kMa, kBma };

  for (const std::string model_name : {"70b", "405b"}) {
    const ModelShape model = model_by_name(model_name);
    // Fig 7 is the miss-handling-throughput-bound regime (§6.3): wave-
    // preserving dispatch (see base_config's comment in bench_util.hpp).
    const auto grid = run_grid(model, seqs, policies, /*llc_mb=*/16,
                               TbDispatch::kPartitionedStealing);

    auto speedup_row = [&](int pol, int base,
                           std::vector<double>* acc = nullptr) {
      std::vector<std::string> row{policies[pol].name};
      for (std::size_t s = 0; s < seqs.size(); ++s) {
        const double sp = grid[pol][s].speedup_vs(grid[base][s]);
        if (acc) acc->push_back(sp);
        row.push_back(TextTable::num(sp));
      }
      return row;
    };

    // (a)/(d): throttling policies vs unoptimized.
    TextTable t7a("Fig 7(" + std::string(model_name == "70b" ? "a" : "d") +
                  ") llama3-" + model_name +
                  ": throttling speedup vs unoptimized");
    std::vector<std::string> head{"policy"};
    for (auto L : seqs) head.push_back(seq_label(L));
    head.push_back("geomean");
    t7a.set_header(head);
    for (int p : {kDyncta, kLcs, kDynmg}) {
      std::vector<double> acc;
      auto row = speedup_row(p, kUnopt, &acc);
      row.push_back(TextTable::num(geomean(acc)));
      t7a.add_row(row);
    }
    t7a.print(std::cout);

    // (b)/(e): arbitration policies (each + dynmg) vs dynmg-only.
    TextTable t7b("Fig 7(" + std::string(model_name == "70b" ? "b" : "e") +
                  ") llama3-" + model_name +
                  ": arbitration (each + dynmg) speedup vs dynmg-only");
    t7b.set_header(head);
    for (int p : {kCobrra, kB, kMa, kBma}) {
      std::vector<double> acc;
      auto row = speedup_row(p, kDynmg, &acc);
      row.push_back(TextTable::num(geomean(acc)));
      t7b.add_row(row);
    }
    t7b.print(std::cout);

    // (c)/(f): cumulative speedups vs unoptimized.
    TextTable t7c("Fig 7(" + std::string(model_name == "70b" ? "c" : "f") +
                  ") llama3-" + model_name +
                  ": cumulative speedup vs unoptimized");
    t7c.set_header(head);
    for (int p : {kDynmg, kB, kMa, kBma}) {
      std::vector<double> acc;
      auto row = speedup_row(p, kUnopt, &acc);
      row[0] = p == kDynmg ? "dynmg" : "dynmg+" + to_string(policies[p].arb);
      row.push_back(TextTable::num(geomean(acc)));
      t7c.add_row(row);
    }
    t7c.print(std::cout);
  }

  std::cout << "\npaper reference: dynmg 1.08-1.44x (geo 1.19x); BMA over "
               "dynmg 1.04-1.07x (geo 1.05x);\n"
               "dynmg+BMA 1.15-1.54x (geo 1.26x); baselines mostly "
               "negative in this regime.\n";
  return 0;
}
