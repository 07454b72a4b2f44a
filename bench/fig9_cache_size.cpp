// Reproduces paper Figure 9: cache-size sensitivity with long sequences.
// All policies at LLC = 16/32/64 MB, normalized against unoptimized@32MB.
// Paper: 32K sequences for both models; default scale runs llama3-70b at
// 16K (the working-set-overflow regime starts there), --scale=paper
// runs the full 32K on both models.
#include "bench_util.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  const BenchOptions args = parse_args(argc, argv);
  print_header("Figure 9: throttling/arbitration under cache-size pressure",
               args.scale);

  const std::uint64_t L =
      args.quick() ? 4096 : (args.paper() ? 32768 : 16384);
  const std::vector<std::string> models =
      args.paper() ? std::vector<std::string>{"70b", "405b"}
                   : std::vector<std::string>{"70b"};
  const std::vector<std::uint64_t> cache_mb = {16, 32, 64};

  const std::vector<NamedPolicy> policies = {
      {"unopt", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dyncta", ThrottlePolicy::kDyncta, ArbPolicy::kFcfs},
      {"lcs", ThrottlePolicy::kLcs, ArbPolicy::kFcfs},
      {"cobrra", ThrottlePolicy::kNone, ArbPolicy::kCobrra},
      {"dynmg", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+cobrra", ThrottlePolicy::kDynMg, ArbPolicy::kCobrra},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };

  for (const auto& model_name : models) {
    const ModelShape model = model_by_name(model_name);
    // One grid per cache size (policies x 1 seq).
    std::vector<std::vector<std::vector<SimStats>>> per_cache;
    per_cache.reserve(cache_mb.size());
    for (std::uint64_t mb : cache_mb) {
      per_cache.push_back(run_grid(model, {L}, policies, mb));
    }
    // The paper's "unoptimized demands larger caches" curve appears when
    // the dataflow streams K per (h,g) over the full sequence (HGL order:
    // K-line reuse distance = one L sweep), which overflows 16MB long
    // before 64MB. Our default static dataflow (LHG) keeps per-core
    // working sets compact, so we reproduce that curve separately here.
    std::vector<ExperimentSpec> hgl_specs;
    for (std::uint64_t mb : cache_mb) {
      SimConfig cfg = base_config(mb);
      Workload wl = Workload::logit(model, L, cfg);
      wl.mapping.order = TbOrder::kHGL;
      hgl_specs.push_back({"hgl-unopt/" + std::to_string(mb) + "MB", cfg,
                           std::move(wl)});
    }
    const auto hgl = run_experiments(hgl_specs, 0, /*verbose=*/true);
    const SimStats& norm = per_cache[1][0][0];  // unoptimized @ 32MB

    TextTable t("Fig 9(" + std::string(model_name == "70b" ? "a" : "b") +
                ") llama3-" + model_name + ", L=" + seq_label(L) +
                ": speedup normalized against unoptimized@32MB");
    t.set_header({"policy", "16MB", "32MB", "64MB"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<std::string> row{policies[p].name};
      for (std::size_t c = 0; c < cache_mb.size(); ++c) {
        row.push_back(TextTable::num(per_cache[c][p][0].speedup_vs(norm)));
      }
      t.add_row(row);
    }
    // The unoptimized row itself (cache sensitivity of the baseline).
    std::vector<std::string> urow{"(unopt, for reference)"};
    for (std::size_t c = 0; c < cache_mb.size(); ++c) {
      urow.push_back(TextTable::num(per_cache[c][0][0].speedup_vs(norm)));
    }
    t.add_row(urow);
    t.print(std::cout);

    TextTable reads("DRAM reads (locality view; compulsory floor is "
                    "policy-independent)");
    reads.set_header({"policy", "16MB", "32MB", "64MB"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<std::string> row{policies[p].name};
      for (std::size_t c = 0; c < cache_mb.size(); ++c) {
        row.push_back(std::to_string(per_cache[c][p][0].dram_reads));
      }
      reads.add_row(row);
    }
    reads.print(std::cout);

    TextTable sens("unoptimized cache-size sensitivity, K-streaming (HGL) "
                   "dataflow (normalized against 32MB)");
    sens.set_header({"metric", "16MB", "32MB", "64MB"});
    std::vector<std::string> srow{"speedup"};
    std::vector<std::string> rrow{"dram_reads"};
    for (std::size_t c = 0; c < cache_mb.size(); ++c) {
      srow.push_back(TextTable::num(hgl[c].stats.speedup_vs(hgl[1].stats)));
      rrow.push_back(std::to_string(hgl[c].stats.dram_reads));
    }
    sens.add_row(srow);
    sens.add_row(rrow);
    sens.print(std::cout);
  }

  std::cout << "\npaper reference (Fig 9 @32K): unoptimized degrades "
               "dramatically as the cache\nshrinks while dynmg-based "
               "policies nearly saturate at 16MB; at 32MB dynmg+BMA\n"
               "reaches 1.50-1.66x over unoptimized and ~1.26x over the "
               "best baseline (dyncta).\n";
  return 0;
}
