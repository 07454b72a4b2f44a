// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--traffic-seed N] [--spans PATH] [--scratch DIR]
//
// --trace 0 (timed run): one warm-up rep, then reps until S seconds have
// passed (at least kMinReps). setup_s is the median per-build time of
// batches of input builds, sampled between the reps; run_s / run_cpu_s sum,
// over the rep's simulate calls, each call's best wall / CPU time across
// the reps.
// --trace 1 (traced run): alternates untraced and traced reps, reports
// per-layer self time from the spans of the fastest traced rep, machine and
// serving counters, and the tracing overhead. Both modes check every rep's
// outputs and print one JSON result line last on stdout; per-rep times go
// to stderr. --scratch names the directory for the captured stderr of the
// traced reps.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kMinReps = 2;
constexpr int kMaxReps = 50;
/// setup_s is a median over at least this many samples, of which
/// kSetupSamplesPerRep precede each timed rep. A single input build takes
/// 0.3-2.5 ms, too short to time alone, so one sample times back-to-back
/// builds for at least kSetupSampleSeconds as one interval and divides by
/// their count.
constexpr std::size_t kSetupSamples = 21;
constexpr int kSetupSamplesPerRep = 4;
constexpr double kSetupSampleSeconds = 0.05;
/// Untraced/traced rep pairs of a traced run.
constexpr int kTracePairs = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t traffic_seed = kDefaultTrafficSeed;
  std::string spans_path;
  std::string scratch_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
    } else if (key == "--traffic-seed") {
      a.traffic_seed = std::stoull(val);
    } else if (key == "--spans") {
      a.spans_path = val;
    } else if (key == "--scratch") {
      a.scratch_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Keeps freed memory in the heap instead of handing it back to the kernel,
/// so each rebuild of the inputs reuses pages that are already mapped. The
/// cost of faulting in fresh pages varies from process to process on a
/// virtual machine, and left alone it made most of the spread of setup_s.
void keep_freed_memory() {
#ifdef __GLIBC__
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs reps of one workload and folds their checks into `result`.
class RepRunner {
 public:
  RepRunner(BenchWorkload& wl, RunResult& result) : wl_(wl), result_(result) {}

  struct Times {
    HostTime setup;
    std::vector<HostTime> calls;  // one per simulate call
    HostTime total;
  };

  void warm_up(Tracer& tracer) {
    const Stopwatch total;
    const RepCheck c = wl_.warm_up(tracer);
    result_.attempted += c.attempted;
    result_.failed += c.failed;
    std::fprintf(stderr, "[perfbench] warm-up: %.4f s\n",
                 total.elapsed().wall_s);
  }

  Times rep(Tracer& tracer, const char* label) {
    Times t;
    const Stopwatch total;
    {
      ScopedSpan root(tracer, "perfbench.rep");
      wl_.release();
      const Stopwatch setup;
      wl_.setup(tracer);
      t.setup = setup.elapsed();
      t.calls = wl_.run(tracer);
      fold(wl_.check(tracer));
    }
    t.total = total.elapsed();
    std::fprintf(stderr, "[perfbench] %-8s rep %2d: setup %.6f s, run", label,
                 reps_++, t.setup.wall_s);
    for (const HostTime& c : t.calls) {
      std::fprintf(stderr, " %.4f s wall %.4f s cpu%s;", c.wall_s, c.cpu_s,
                   contended(c) ? " (contended)" : "");
    }
    std::fprintf(stderr, "\n");
    return t;
  }

 private:
  void fold(const RepCheck& c) {
    result_.attempted += c.attempted;
    result_.failed += c.failed;
    if (digest_.empty()) {
      digest_ = c.digest;
    } else if (c.digest != digest_) {
      std::fprintf(stderr, "[perfbench] rep outputs differ from rep 0\n");
      result_.failed += c.attempted;
    }
  }

  BenchWorkload& wl_;
  RunResult& result_;
  std::string digest_;
  int reps_ = 0;
};

/// Sum over simulate calls of each call's best time across reps.
HostTime best_per_call(const std::vector<std::vector<HostTime>>& reps) {
  HostTime sum;
  for (std::size_t j = 0; j < reps.front().size(); ++j) {
    double wall = reps.front()[j].wall_s, cpu = reps.front()[j].cpu_s;
    for (const auto& r : reps) {
      wall = std::min(wall, r[j].wall_s);
      cpu = std::min(cpu, r[j].cpu_s);
    }
    sum.wall_s += wall;
    sum.cpu_s += cpu;
  }
  return sum;
}

void timed_run(const Args& a, BenchWorkload& wl, RunResult& result) {
  RepRunner runner(wl, result);
  Tracer off;
  runner.warm_up(off);
  std::vector<std::vector<HostTime>> reps;
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    const Stopwatch s;
    double wall = 0.0;
    int builds = 0;
    do {
      wl.release();
      wl.setup(off);
      ++builds;
      wall = s.elapsed().wall_s;
    } while (wall < kSetupSampleSeconds);
    setup_s.push_back(wall / builds);
  };
  const Stopwatch window;
  while (static_cast<int>(reps.size()) < kMinReps ||
         (window.elapsed().wall_s < a.seconds &&
          static_cast<int>(reps.size()) < kMaxReps)) {
    // Build-only samples between the reps spread setup_s over the window.
    for (int k = 0; k < kSetupSamplesPerRep; ++k) sample_setup();
    reps.push_back(runner.rep(off, "timed").calls);
  }
  while (setup_s.size() < kSetupSamples) sample_setup();
  const HostTime best = best_per_call(reps);
  result.values["setup_s"] = median(setup_s);
  result.values["run_s"] = best.wall_s;
  result.values["run_cpu_s"] = best.cpu_s;
  wl.modeled_metrics(result.values);
  result.values["peak_rss_mb"] = peak_rss_mb();
}

void traced_run(const Args& a, BenchWorkload& wl, RunResult& result) {
  RepRunner runner(wl, result);
  Tracer off;
  runner.warm_up(off);
  Tracer tracer;
  double best_untraced = 0.0, best_traced = 0.0;
  int best = 0;
  FastpathTotals fastpath;
  for (int k = 0; k < kTracePairs; ++k) {
    const double plain = runner.rep(off, "untraced").total.wall_s;
    best_untraced = k == 0 ? plain : std::min(best_untraced, plain);

    tracer.enable(true);
    tracer.set_context(a.workload, static_cast<std::uint32_t>(k));
    // System::run reports its stepped/skipped split on stderr under this
    // knob; capture it for the traced rep only.
    setenv("LLAMCAT_FASTPATH_STATS", "1", 1);
    StderrCapture capture(a.scratch_dir + "/perfbench-stderr-" + a.workload +
                          ".txt");
    const double with_spans = runner.rep(tracer, "traced").total.wall_s;
    wl.traced_extras(tracer);
    const std::string text = capture.finish();
    unsetenv("LLAMCAT_FASTPATH_STATS");
    tracer.enable(false);
    std::fputs(text.c_str(), stderr);
    if (k == 0 || with_spans < best_traced) {
      best_traced = with_spans;
      best = k;
      fastpath = parse_fastpath(text);
    }
  }

  const std::vector<Span>& spans = tracer.spans();
  const auto by_name = self_seconds_by_name(spans, best);
  const auto by_layer = self_seconds_by_layer(spans, best);
  auto self = [](const std::map<std::string, double>& m, const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto root =
      std::find_if(spans.begin(), spans.end(), [&](const Span& s) {
        return s.name == "perfbench.rep" &&
               s.rep == static_cast<std::uint32_t>(best);
      });
  const double rep_s = root->end_s - root->start_s;

  Values& v = result.values;
  for (const char* name :
       {"trace.map", "trace.tracegen", "sim.build", "sim.run",
        "scenario.traffic", "scenario.schedule", "scenario.run"}) {
    v[std::string(name) + "_s"] = self(by_name, name);
  }
  v["sim.host_share"] = self(by_layer, "sim") / rep_s;
  v["scenario.host_share"] = self(by_layer, "scenario") / rep_s;
  v["sim.ns_per_kcycle"] = (v["sim.run_s"] + v["scenario.run_s"]) /
                           wl.simulated_kcycles() * 1e9;
  v["sim.stepped_frac"] = fastpath.stepped_frac();
  v["perfbench.trace_overhead_pct"] =
      (best_traced / best_untraced - 1.0) * 100.0;
  wl.layer_counters(v);

  if (!a.spans_path.empty()) {
    std::ofstream out(a.spans_path);
    write_spans_json(out, spans);
    if (!out) throw std::runtime_error("cannot write " + a.spans_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    keep_freed_memory();
    const auto wl = make_workload(a.workload, a.seed, a.traffic_seed);
    RunResult result;
    if (a.trace) {
      traced_run(a, *wl, result);
    } else {
      timed_run(a, *wl, result);
    }
    for (const auto& [name, value] : result.values) {
      if (!std::isfinite(value)) {
        throw std::runtime_error("metric " + name + " is not finite");
      }
    }
    result.correct = result.failed == 0 && result.attempted > 0;
    std::cout << result_line(result, a.trace ? MetricKind::kPerLayer
                                             : MetricKind::kEndToEnd)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
