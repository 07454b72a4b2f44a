#include "harness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/invariants.hpp"

namespace perfbench {

using llamcat::Cycle;
using llamcat::scenario::BatchStats;

double wall_now_s() {
  // lint:allow(wallclock): host runtime is what the benchmark reports
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double cpu_now_s() {
  timespec ts{};
  // lint:allow(wallclock): process CPU time is reported next to wall time
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool contended(const HostTime& t) { return t.wall_s > t.cpu_s * 1.05; }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int Tracer::begin(std::string name) {
  if (!on_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), wall_now_s(), 0.0,
                        open_.empty() ? -1 : open_.back(), workload_, rep_});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: span '" + spans_[id].name +
                           "' closed out of order");
  }
  spans_[id].end_s = wall_now_s();
  open_.pop_back();
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s, hi = spans[i].end_s;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Measure of the union of the children's intervals, clipped to [lo, hi].
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool in_run = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (in_run && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, int rep) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (rep < 0 || spans[i].rep == static_cast<std::uint32_t>(rep)) {
      out[spans[i].name] += self[i];
    }
  }
  return out;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, int rep) {
  std::map<std::string, double> out;
  for (const auto& [name, s] : self_seconds_by_name(spans, rep)) {
    out[name.substr(0, name.find('.'))] += s;
  }
  return out;
}

void write_spans_json(std::ostream& os, const std::vector<Span>& spans) {
  os << "[\n" << std::setprecision(17);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"parent\": " << s.parent << ", \"workload\": \"" << s.workload
       << "\", \"rep\": " << s.rep << "}" << (i + 1 < spans.size() ? "," : "")
       << "\n";
  }
  os << "]\n";
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

ServingFigures serving_figures(const BatchStats& stats, Cycle slo_ttft_cycles) {
  ServingFigures f;
  f.ttft_p50_kcycles = static_cast<double>(stats.ttft_percentile(50.0)) / 1e3;
  f.ttft_p90_kcycles = static_cast<double>(stats.ttft_percentile(90.0)) / 1e3;
  f.tbt_p90_kcycles = static_cast<double>(stats.tbt_percentile(90.0)) / 1e3;
  const llamcat::scenario::SloReport slo =
      llamcat::scenario::slo_accounting(stats, slo_ttft_cycles);
  if (stats.makespan > 0) {
    f.goodput_tps = static_cast<double>(slo.goodput_tokens) /
                    static_cast<double>(stats.makespan) * stats.total.core_hz;
  }
  return f;
}

FastpathTotals parse_fastpath(std::string_view text) {
  FastpathTotals t;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("[fastpath] ", 0) != 0) continue;
    unsigned long long cycles = 0, stepped = 0;
    if (std::sscanf(line.c_str(), "[fastpath] cycles=%llu stepped=%llu",
                    &cycles, &stepped) != 2) {
      throw std::runtime_error("unparsable fastpath line: " + line);
    }
    t.cycles += cycles;
    t.stepped += stepped;
  }
  return t;
}

StderrCapture::StderrCapture(std::string path) : path_(std::move(path)) {
  std::fflush(stderr);
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path_);
  saved_fd_ = ::dup(STDERR_FILENO);
  if (saved_fd_ < 0 || ::dup2(fd, STDERR_FILENO) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot redirect stderr to " + path_);
  }
  ::close(fd);
}

StderrCapture::~StderrCapture() { restore(); }

void StderrCapture::restore() {
  if (saved_fd_ < 0) return;
  std::fflush(stderr);
  ::dup2(saved_fd_, STDERR_FILENO);
  ::close(saved_fd_);
  saved_fd_ = -1;
}

std::string StderrCapture::finish() {
  restore();
  std::ifstream in(path_);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path_.c_str());
  return text.str();
}

// ---------------------------------------------------------------------------
// Metric catalog and the result line
// ---------------------------------------------------------------------------

const std::vector<MetricDef>& metric_catalog() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  static const std::vector<MetricDef> kCatalog = {
      // End to end: host time of the simulator...
      {"setup_s", "s", E},
      {"run_s", "s", E},
      {"run_cpu_s", "s", E},
      {"peak_rss_mb", "MB", E},
      // ...and the modeled machine (exact; identical on every run).
      {"sim_kcycles", "kcycles", E},
      {"sim_speedup", "x", E},
      {"ttft_p50_kcycles", "kcycles", E},
      {"ttft_p90_kcycles", "kcycles", E},
      {"tbt_p90_kcycles", "kcycles", E},
      {"goodput_tps", "tok/s", E},
      // Per layer, from the traced run. Host self time first...
      {"trace.map_s", "s", L},
      {"trace.ops_lowered", "count", L},
      {"trace.tracegen_s", "s", L},
      {"sim.build_s", "s", L},
      {"sim.run_s", "s", L},
      {"sim.ns_per_kcycle", "ns/kcycle", L},
      {"sim.stepped_frac", "frac", L},
      {"sim.host_share", "frac", L},
      {"scenario.traffic_s", "s", L},
      {"scenario.schedule_s", "s", L},
      {"scenario.run_s", "s", L},
      {"scenario.segments", "count", L},
      {"scenario.host_share", "frac", L},
      {"perfbench.trace_overhead_pct", "%", L},
      // ...then the machine counters of the dynmg+BMA stack...
      {"vcore.ipc", "instr/cycle", L},
      {"vcore.mem_stall_kcycles", "kcycles", L},
      {"vcore.idle_kcycles", "kcycles", L},
      {"cache.l1_hit_rate", "frac", L},
      {"cache.l1_merges", "count", L},
      {"cache.l1_blocked", "count", L},
      {"llc.lookups", "count", L},
      {"llc.hit_rate", "frac", L},
      {"llc.mshr_hit_rate", "frac", L},
      {"llc.mshr_entry_util", "frac", L},
      {"llc.stall_entry_kcycles", "kcycles", L},
      {"llc.stall_target_kcycles", "kcycles", L},
      {"llc.backpressure", "count", L},
      {"core.t_cs", "frac", L},
      {"dram.reads", "count", L},
      {"dram.row_hit_rate", "frac", L},
      {"dram.bw_gbps", "GB/s", L},
      // ...and the serving layer's (0 on the single-operator workloads).
      {"scenario.preemptions", "count", L},
      {"scenario.queue_wait_kcycles", "kcycles", L},
      {"scenario.swapped_blocks", "count", L},
      {"scenario.refetch_kcycles", "kcycles", L},
      {"scenario.kv_hit_rate", "frac", L},
      {"scenario.kv_dedup_ratio", "frac", L},
  };
  return kCatalog;
}

std::string result_line(const RunResult& result, MetricKind kind) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : metric_catalog()) {
    if (m.kind != kind) continue;
    const auto it = result.values.find(std::string(m.name));
    if (it == result.values.end()) {
      throw std::logic_error("metric " + std::string(m.name) + " has no value");
    }
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << it->second << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
