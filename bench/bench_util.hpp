// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"

namespace llamcat::bench {

/// Machine-readable bench output: a flat JSON array of measurement rows,
/// written next to the human tables so CI can archive the perf trajectory
/// across PRs. Usage:
///   JsonRows json;
///   json.begin_row().field("policy", name).field("cycles", cycles);
///   ...
///   json.write_if_requested(argc, argv);  // honors --json=PATH
class JsonRows {
 public:
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

  /// Scans argv for --json=PATH and writes the rows there when present.
  /// Returns false (after a diagnostic) only if the file cannot be opened.
  bool write_if_requested(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (arg.rfind("--json=", 0) != 0) continue;
      const std::string path(arg.substr(7));
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return false;
      }
      write(out);
      std::cout << "wrote " << path << "\n";
    }
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

/// True when LLAMCAT_PAPER_SCALE=1: run the paper's full problem sizes
/// (32K sequences, both models everywhere). The default is a reduced scale
/// that preserves every regime/shape but keeps the whole bench suite to
/// minutes; each binary prints which scale it used.
inline bool paper_scale() {
  // lint:allow(ambient-env): a bench binary chooses its problem scale from its environment
  const char* v = std::getenv("LLAMCAT_PAPER_SCALE");
  return v != nullptr && std::string(v) == "1";
}

inline bool quick_scale() {
  // lint:allow(ambient-env): a bench binary chooses its problem scale from its environment
  const char* v = std::getenv("LLAMCAT_QUICK");
  return v != nullptr && std::string(v) == "1";
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

inline void print_header(const std::string& what) {
  std::cout << "\n==========================================================\n"
            << what << "\n"
            << "scale: "
            << (paper_scale() ? "paper (LLAMCAT_PAPER_SCALE=1)"
                              : "default (set LLAMCAT_PAPER_SCALE=1 for the "
                                "paper's full sizes)")
            << "\n"
            << "==========================================================\n";
}

}  // namespace llamcat::bench
