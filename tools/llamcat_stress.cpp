// llamcat_stress: db_stress-style randomized fuzzer over the
// continuous-serving engine. Each seed deterministically draws a full
// scenario (machine x batch x serving policy - scenario/fuzz.hpp), runs it
// twice through the invariant contract (scenario/invariants.hpp), and any
// violation prints the scenario plus a one-line replay command.
//
//   llamcat_stress                      # 200 runs from the default base seed
//   llamcat_stress --runs=1000          # longer sweep
//   llamcat_stress --jobs=4             # sweep across 4 worker threads
//   llamcat_stress --seed=42            # sweep base: seeds 42, 43, ...
//   llamcat_stress --replay=1337        # re-run exactly one failing seed
//   llamcat_stress --verbose            # print every scenario as it runs
//
// Every seed is an independent single-threaded simulation, so --jobs only
// changes wall-clock time: results land in seed-order slots and the output
// (and exit code) is identical for any job count.
//
// Exit code 0 = every run clean, 1 = at least one violation (the failing
// seeds are listed at the end), 2 = bad usage. docs/testing.md has the
// seed-pinning workflow (a failing seed becomes a regression test in
// tests/test_serving_fuzz.cpp).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "cli/options.hpp"
#include "scenario/fuzz.hpp"

namespace {

void report(const llamcat::scenario::FuzzResult& r) {
  std::cerr << "FAIL seed " << r.seed << ": "
            << llamcat::scenario::draw_scenario(r.seed).summary() << "\n";
  for (const std::string& v : r.violations) {
    std::cerr << "  " << v << "\n";
  }
  std::cerr << "  replay: llamcat_stress --replay=" << r.seed << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  llamcat::StressOptions opt;
  const std::vector<llamcat::CliFlag> flags = llamcat::stress_flags(opt);
  if (const auto stop = llamcat::parse_command_line(
          flags,
          llamcat::flags_usage("usage: llamcat_stress [--flag=value ...]\n",
                               flags),
          {argv + 1, argv + argc}, std::cout, std::cerr)) {
    return *stop;
  }

  if (opt.replay) {
    const auto sc = llamcat::scenario::draw_scenario(*opt.replay);
    std::cout << "replaying seed " << *opt.replay << ": " << sc.summary()
              << "\n";
    const auto r = llamcat::scenario::run_fuzz_seed(*opt.replay);
    if (!r.ok()) {
      report(r);
      return 1;
    }
    std::cout << "seed " << *opt.replay << " clean\n";
    return 0;
  }

  // The sweep runs in chunks of 50 seeds (the heartbeat cadence): each
  // chunk fans out across --jobs worker threads into seed-order slots, then
  // reports serially, so the output stream is identical for any job count.
  constexpr std::uint64_t kChunk = 50;
  std::vector<std::uint64_t> failing;
  for (std::uint64_t done = 0; done < opt.runs; done += kChunk) {
    const std::uint64_t n = std::min(kChunk, opt.runs - done);
    const auto results = llamcat::scenario::run_fuzz_sweep(
        opt.base_seed + done, n, opt.jobs);
    for (const auto& r : results) {
      if (opt.verbose) {
        std::cout << "seed " << r.seed << ": "
                  << llamcat::scenario::draw_scenario(r.seed).summary()
                  << "\n";
      }
      if (!r.ok()) {
        report(r);
        failing.push_back(r.seed);
      }
    }
    if (!opt.verbose && (done + n) % kChunk == 0) {
      std::cout << (done + n) << "/" << opt.runs << " seeds fuzzed, "
                << failing.size() << " failing\n";
    }
  }
  if (!failing.empty()) {
    std::cerr << failing.size() << "/" << opt.runs << " seeds FAILED:";
    for (const std::uint64_t s : failing) std::cerr << " " << s;
    std::cerr << "\nreplay one with: llamcat_stress --replay=<seed>\n";
    return 1;
  }
  std::cout << "all " << opt.runs << " seeds clean (base seed "
            << opt.base_seed << ")\n";
  return 0;
}
