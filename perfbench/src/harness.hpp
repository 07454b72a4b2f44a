// Measurement harness of the repository benchmark: host clocks, the
// in-memory span recorder and its self-time reduction, the reductions that
// turn simulator outputs into metrics, and the metric catalog that the
// result line is checked against. Nothing here touches simulated state:
// host time is only ever reported, never fed back into a simulation.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

/// Wall and process-CPU seconds of one timed interval.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Seconds on the monotonic wall clock since an arbitrary origin.
[[nodiscard]] double wall_now_s();
/// Process CPU seconds (user + system) consumed so far.
[[nodiscard]] double cpu_now_s();

/// Starts on construction; elapsed() reads both clocks.
class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_now_s()), cpu0_(cpu_now_s()) {}
  [[nodiscard]] HostTime elapsed() const {
    return {wall_now_s() - wall0_, cpu_now_s() - cpu0_};
  }

 private:
  double wall0_;
  double cpu0_;
};

/// A rep is contended when its wall time exceeds its CPU time by more than
/// 5 %: the process was descheduled for part of it, so its wall time
/// measures the host's other tenants as well as the simulator.
[[nodiscard]] bool contended(const HostTime& t);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced interval around a call into a simulator layer. `name` is
/// "<layer>.<call>" (layer = the src/ module the call enters); `parent`
/// indexes the enclosing span (-1 for a root); every span of one rep of
/// one workload shares (`workload`, `rep`).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::string workload;
  std::uint32_t rep = 0;
};

/// Records spans in memory while enabled; begin()/end() are no-ops (and
/// read no clock) while disabled, so the timed reps run untraced.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  void set_context(std::string workload, std::uint32_t rep) {
    workload_ = std::move(workload);
    rep_ = rep;
  }

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int begin(std::string name);
  /// Closes span `id` (must be the innermost open span).
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::string workload_;
  std::uint32_t rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// each other or stick out of the parent; only the covered part of the
/// parent's own interval is subtracted, so self time is never negative.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self time summed per span name (e.g. "sim.run") over the spans of rep
/// `rep` (every rep when negative).
[[nodiscard]] std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, int rep = -1);

/// Self time summed per layer (the name up to its first '.').
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, int rep = -1);

/// Writes the spans as a JSON array, one object per line.
void write_spans_json(std::ostream& os, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Median (mean of the middle pair for an even count); 0 for no values.
[[nodiscard]] double median(std::vector<double> values);

/// The serving figures of one open-loop pass, in simulated time. TTFT is
/// measured from each request's due arrival cycle, so a late generator
/// cannot hide queueing; goodput counts the decode tokens of requests whose
/// TTFT met `slo_ttft_cycles`, per simulated second of makespan.
struct ServingFigures {
  double ttft_p50_kcycles = 0.0;
  double ttft_p90_kcycles = 0.0;
  double tbt_p90_kcycles = 0.0;
  double goodput_tps = 0.0;
};
[[nodiscard]] ServingFigures serving_figures(
    const llamcat::scenario::BatchStats& stats,
    llamcat::Cycle slo_ttft_cycles);

/// Totals of the "[fastpath] cycles=... stepped=..." lines System::run
/// prints to stderr under LLAMCAT_FASTPATH_STATS=1 (one line per run).
struct FastpathTotals {
  std::uint64_t cycles = 0;
  std::uint64_t stepped = 0;
  /// Share of simulated cycles the engine stepped one by one instead of
  /// skipping (0 when no line was seen).
  [[nodiscard]] double stepped_frac() const {
    return cycles > 0 ? static_cast<double>(stepped) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
};
[[nodiscard]] FastpathTotals parse_fastpath(std::string_view text);

/// Redirects this process's stderr (fd 2) into `path` until finish(), which
/// restores it and returns what was written. The destructor restores it if
/// finish() was never called.
class StderrCapture {
 public:
  explicit StderrCapture(std::string path);
  ~StderrCapture();
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  std::string finish();

 private:
  void restore();

  std::string path_;
  int saved_fd_ = -1;
};

// ---------------------------------------------------------------------------
// Metric catalog and the result line
// ---------------------------------------------------------------------------

enum class MetricKind : std::uint8_t { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  MetricKind kind;
};

/// Every metric the benchmark prints, in print order. BENCHMARK.json lists
/// the same names and units, with each metric's direction and bound
/// (perfbench_tests checks they agree).
[[nodiscard]] const std::vector<MetricDef>& metric_catalog();

/// One run's outcome: operations attempted/failed and the measured values
/// keyed by metric name.
struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

/// The single JSON result line for `kind`: every catalog metric of that
/// kind with its unit, in catalog order. Throws std::logic_error when a
/// metric of that kind has no value (the benchmark must never print a
/// partial result).
[[nodiscard]] std::string result_line(const RunResult& result,
                                      MetricKind kind);

}  // namespace perfbench
