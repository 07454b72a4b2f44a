#include "scenario/sweep.hpp"

#include <stdexcept>

namespace llamcat::scenario {

void SweepConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("SweepConfig: " + msg);
  };
  if (gaps.empty()) fail("empty gap axis");
  for (const Cycle g : gaps) {
    if (g == 0) fail("zero mean gap on the axis");
  }
  if (slo_ttft_cycles == 0) fail("slo_ttft_cycles == 0");
  TrafficConfig shape = traffic;
  shape.mean_gap = gaps.front();  // mean_gap is per-point; validate the rest
  shape.validate();
}

namespace {

SweepPoint run_one_point(const ModelShape& model, const SimConfig& cfg,
                         const DecodePassConfig& pass_cfg,
                         const SweepConfig& sweep, Cycle gap) {
  TrafficConfig tc = sweep.traffic;
  tc.mean_gap = gap;
  const std::vector<RequestSpec> requests = generate_traffic(tc);
  const RequestBatch batch(model, requests);
  const BatchStats stats = DecodePass(batch, pass_cfg, cfg).run();

  // A charted point must honor the open-loop contract; a breach here is an
  // engine bug, not a data point.
  const AuditReport audit =
      audit_open_loop(requests, stats, sweep.slo_ttft_cycles);
  if (!audit.ok()) {
    throw InvariantViolation("load sweep @gap=" + std::to_string(gap) + ": " +
                             audit.to_string());
  }

  SweepPoint pt;
  pt.mean_gap = gap;
  pt.offered_qps = stats.total.core_hz / static_cast<double>(gap);
  pt.throughput_tps = stats.tokens_per_cycle() * stats.total.core_hz;
  pt.makespan = stats.makespan;
  pt.p50_latency = stats.latency_percentile(50.0);
  pt.p99_latency = stats.latency_percentile(99.0);
  pt.p50_ttft = stats.ttft_percentile(50.0);
  pt.p99_ttft = stats.ttft_percentile(99.0);
  pt.p50_tbt = stats.tbt_percentile(50.0);
  pt.p99_tbt = stats.tbt_percentile(99.0);
  pt.slo = slo_accounting(stats, sweep.slo_ttft_cycles);
  pt.goodput_tps =
      stats.makespan > 0
          ? static_cast<double>(pt.slo.goodput_tokens) /
                static_cast<double>(stats.makespan) * stats.total.core_hz
          : 0.0;
  pt.preemptions = stats.total_preemptions();
  pt.queue_wait = stats.total_queue_wait();
  return pt;
}

}  // namespace

std::vector<SweepPoint> run_load_sweep(const ModelShape& model,
                                       const SimConfig& cfg,
                                       const DecodePassConfig& pass_cfg,
                                       const SweepConfig& sweep) {
  sweep.validate();
  std::vector<SweepPoint> points;
  points.reserve(sweep.gaps.size());
  for (const Cycle gap : sweep.gaps) {
    points.push_back(run_one_point(model, cfg, pass_cfg, sweep, gap));
  }
  return points;
}

std::size_t max_sustainable_index(const std::vector<SweepPoint>& points,
                                  Cycle slo_ttft_cycles) {
  std::size_t best = points.size();
  double best_qps = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].p99_ttft <= slo_ttft_cycles &&
        points[i].offered_qps > best_qps) {
      best = i;
      best_qps = points[i].offered_qps;
    }
  }
  return best;
}

}  // namespace llamcat::scenario
