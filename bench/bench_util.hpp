// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/options.hpp"
#include "common/math_util.hpp"
#include "common/parallel_map.hpp"
#include "common/table.hpp"
#include "scenario/scenario.hpp"
#include "sim/experiment.hpp"

namespace llamcat::bench {

/// Machine-readable bench output: a flat JSON array of measurement rows,
/// written next to the human tables so CI can archive the perf trajectory
/// across PRs. Usage:
///   JsonRows json;
///   const BenchOptions args = parse_args(argc, argv, &json);  // --json=PATH
///   json.begin_row().field("policy", name).field("cycles", cycles);
///   ...
///   return json.write_if_requested() ? 0 : 1;
class JsonRows {
 public:
  /// Where write_if_requested writes; empty = nowhere.
  std::string path;

  JsonRows& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  JsonRows& field(std::string_view key, std::string_view value) {
    std::ostringstream os;
    os << '"' << value << '"';  // bench keys/values never need escaping
    return raw(key, os.str());
  }
  JsonRows& field(std::string_view key, double value) {
    std::ostringstream os;
    os << value;
    return raw(key, os.str());
  }
  JsonRows& field(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }

  void write(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << "  {" << rows_[i] << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
  }

  /// Writes the rows to `path` when one was given. Returns false (after a
  /// diagnostic) only if the file cannot be opened.
  bool write_if_requested() const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    write(out);
    std::cout << "wrote " << path << "\n";
    return true;
  }

 private:
  JsonRows& raw(std::string_view key, const std::string& value) {
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += '"';
    row += key;
    row += "\": ";
    row += value;
    return *this;
  }

  std::vector<std::string> rows_;
};

/// Parses a bench's command line against `flags` (cli/options.hpp
/// bench_flags). --help exits 0 with the usage; a flag the bench does not
/// act on exits 2 with the usage.
inline void parse_or_exit(int argc, char** argv,
                          const std::vector<CliFlag>& flags) {
  const std::string name = std::filesystem::path(argv[0]).filename();
  if (const auto stop = parse_command_line(
          flags, flags_usage("usage: " + name + " [--flag=value ...]\n", flags),
          {argv + 1, argv + argc}, std::cout, std::cerr)) {
    std::exit(*stop);
  }
}

/// Parses a bench's command line: --scale, and --json=PATH into
/// `json->path` when the bench writes JSON rows. The default scale is
/// reduced but keeps every regime and shape, so the whole suite runs in
/// minutes; quick is CI's smoke scale and paper the paper's full problem
/// sizes.
inline BenchOptions parse_args(int argc, char** argv,
                               JsonRows* json = nullptr) {
  BenchOptions opt;
  std::string* json_path = json != nullptr ? &json->path : nullptr;
  parse_or_exit(argc, argv, bench_flags(&opt.scale, json_path));
  return opt;
}

struct NamedPolicy {
  std::string name;
  ThrottlePolicy thr;
  ArbPolicy arb;
};

/// The paper's baseline machine (Table 5).
///
/// The paper splits its evaluation into two regimes (§6.2.1): Fig 7/8 study
/// a system "mainly bottlenecked by miss handling throughput" while Fig 9
/// adds cache-capacity pressure. Thread-block dispatch selects the regime:
/// wave-preserving round-robin keeps the concurrently-running thread blocks
/// inside one GQA wave, so the MSHR pool (not cache capacity) is the
/// limiter; the static per-core-chunk dispatch spreads in-flight blocks
/// over a wide address span and recreates the capacity-pressure regime.
inline SimConfig base_config(
    std::uint64_t llc_mb = 16,
    TbDispatch dispatch = TbDispatch::kStaticBlocked) {
  SimConfig cfg = SimConfig::table5();
  cfg.llc.size_bytes = llc_mb << 20;
  cfg.core.tb_dispatch = dispatch;
  return cfg;
}

/// Machine configured for the miss-handling-throughput-bound regime of
/// Fig 7 / Fig 8 (§6.3).
inline SimConfig mha_bound_config(std::uint64_t llc_mb = 16) {
  return base_config(llc_mb, TbDispatch::kPartitionedStealing);
}

/// The scaled-down machine of the serving-layer ablations: 4 cores, an
/// `llc_mb` LLC over 2 slices and 2 DRAM channels, so co-resident KV
/// streams genuinely contend. `max_cycles` is the run's safety stop.
inline SimConfig contention_config(ThrottlePolicy thr, ArbPolicy arb,
                                   std::uint64_t llc_mb = 1,
                                   Cycle max_cycles = 200'000'000) {
  SimConfig cfg = with_policies(SimConfig::table5(), thr, arb);
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = llc_mb << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = max_cycles;
  return cfg;
}

/// Mean end-to-end request latency of a batch, in cycles.
inline double mean_latency(const scenario::BatchStats& s) {
  double sum = 0.0;
  for (const scenario::RequestStats& r : s.per_request) {
    sum += static_cast<double>(r.latency());
  }
  return sum / static_cast<double>(s.per_request.size());
}

inline ModelShape model_by_name(const std::string& name) {
  return name == "405b" ? ModelShape::llama3_405b()
                        : ModelShape::llama3_70b();
}

/// Runs all (policy x seq) experiments for one model and returns the
/// results, indexed [policy][seq].
inline std::vector<std::vector<SimStats>> run_grid(
    const ModelShape& model, const std::vector<std::uint64_t>& seqs,
    const std::vector<NamedPolicy>& policies, std::uint64_t llc_mb = 16,
    TbDispatch dispatch = TbDispatch::kStaticBlocked) {
  std::vector<ExperimentSpec> specs;
  for (const auto& p : policies) {
    for (std::uint64_t L : seqs) {
      SimConfig cfg =
          with_policies(base_config(llc_mb, dispatch), p.thr, p.arb);
      specs.push_back(ExperimentSpec{
          p.name + "/" + std::to_string(L), cfg,
          Workload::logit(model, L, cfg)});
    }
  }
  const auto results = run_experiments(specs, 0, /*verbose=*/true);
  std::vector<std::vector<SimStats>> grid(policies.size());
  std::size_t k = 0;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    for (std::size_t s = 0; s < seqs.size(); ++s) grid[p].push_back(
        results[k++].stats);
  }
  return grid;
}

inline std::string seq_label(std::uint64_t L) {
  if (L % 1024 == 0) return std::to_string(L / 1024) + "K";
  return std::to_string(L);
}

/// The bench's title and, for a bench that takes --scale, its scale.
inline void print_header(const std::string& what,
                         std::optional<Scale> scale = std::nullopt) {
  std::cout << "\n==========================================================\n"
            << what << "\n";
  if (scale) {
    std::cout << "scale: " << to_string(*scale)
              << (scale == Scale::kDefault
                      ? " (--scale=paper runs the paper's full sizes)"
                      : "")
              << "\n";
  }
  std::cout << "==========================================================\n";
}

}  // namespace llamcat::bench
