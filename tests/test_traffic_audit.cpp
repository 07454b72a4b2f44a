// Open-loop audit layer (scenario/invariants.hpp items 5-7): a real
// generated workload passes the contract end to end, and every class of
// corruption - out-of-order sources, impossible landmarks, dropped rows,
// broken SLO sums - is rejected with a violation naming the request. The
// corruptions are applied to a copy of a genuine run's stats, so each test
// proves the auditor catches exactly one defect on otherwise-valid data.
// The load-sweep driver (scenario/sweep.hpp) that charts audited runs is
// tested at the end.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "scenario/traffic.hpp"

namespace llamcat {
namespace {

using scenario::audit_open_loop;
using scenario::AuditReport;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::generate_traffic;
using scenario::max_sustainable_index;
using scenario::RequestBatch;
using scenario::RequestSpec;
using scenario::run_load_sweep;
using scenario::slo_accounting;
using scenario::SloReport;
using scenario::SweepConfig;
using scenario::SweepPoint;
using scenario::TrafficConfig;

SimConfig small_config() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  cfg.max_cycles = 20'000'000;
  return cfg;
}

ModelShape tiny_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

DecodePassConfig open_loop_pass() {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  return pc;
}

TrafficConfig small_traffic() {
  TrafficConfig tc;
  tc.num_requests = 3;
  tc.seed = 11;
  tc.mean_gap = 5'000;
  tc.seq_min = 32;
  tc.seq_max = 96;
  tc.steps_min = 1;
  tc.steps_max = 3;
  return tc;
}

/// One genuine open-loop run, shared by every corruption test.
struct OpenLoopRun {
  std::vector<RequestSpec> requests;
  BatchStats stats;

  OpenLoopRun() : requests(generate_traffic(small_traffic())) {
    const RequestBatch batch(tiny_model(), requests);
    stats = DecodePass(batch, open_loop_pass(), small_config()).run();
  }
};

const OpenLoopRun& run() {
  static const OpenLoopRun r;
  return r;
}

constexpr Cycle kSlo = 100'000;

void expect_violation(const std::vector<RequestSpec>& requests,
                      const BatchStats& stats, const std::string& needle,
                      const char* what) {
  const AuditReport report = audit_open_loop(requests, stats, kSlo);
  ASSERT_FALSE(report.ok()) << what << ": corruption went unnoticed";
  EXPECT_NE(report.to_string().find(needle), std::string::npos)
      << what << ": got\n"
      << report.to_string();
}

TEST(OpenLoopAudit, GenuineRunPasses) {
  const AuditReport report = audit_open_loop(run().requests, run().stats,
                                             kSlo);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(OpenLoopAudit, RejectsBarrierModeStats) {
  BatchStats stats = run().stats;
  stats.mode = ExecutionMode::kIndependent;
  expect_violation(run().requests, stats, "kContinuous", "barrier mode");
}

TEST(OpenLoopAudit, RejectsRowCountMismatch) {
  std::vector<RequestSpec> requests = run().requests;
  requests.pop_back();
  expect_violation(requests, run().stats, "rows for a workload",
                   "dropped workload row");
}

TEST(OpenLoopAudit, RejectsOutOfOrderArrivals) {
  std::vector<RequestSpec> requests = run().requests;
  ASSERT_GE(requests.size(), 2u);
  // Push the first arrival past the second: the source no longer emits in
  // arrival order. (Also perturbs the per-request landmark checks; the
  // arrival-order violation must be among those reported.)
  requests[0].arrival_cycle = requests[1].arrival_cycle + 1;
  expect_violation(requests, run().stats, "arrival order",
                   "out-of-order source");
}

TEST(OpenLoopAudit, RejectsAdmitBeforeArrival) {
  BatchStats stats = run().stats;
  ASSERT_GT(run().requests[1].arrival_cycle, 0u);
  stats.per_request[1].admit_cycle = run().requests[1].arrival_cycle - 1;
  expect_violation(run().requests, stats, "before arrival",
                   "admit before arrival");
}

TEST(OpenLoopAudit, RejectsDispatchBeforeArrival) {
  BatchStats stats = run().stats;
  ASSERT_GT(run().requests[1].arrival_cycle, 0u);
  stats.per_request[1].slice.first_dispatch_cycle =
      run().requests[1].arrival_cycle - 1;
  expect_violation(run().requests, stats, "first dispatch",
                   "dispatch before arrival");
}

TEST(OpenLoopAudit, RejectsMissingStepLandmark) {
  BatchStats stats = run().stats;
  ASSERT_FALSE(stats.per_request[0].step_finish_cycles.empty());
  stats.per_request[0].step_finish_cycles.pop_back();
  expect_violation(run().requests, stats, "step-finish landmarks",
                   "missing step landmark");
}

TEST(OpenLoopAudit, RejectsBackwardsStepLandmarks) {
  BatchStats stats = run().stats;
  // Find a multi-step request and send its first landmark past its last.
  for (auto& r : stats.per_request) {
    if (r.step_finish_cycles.size() >= 2) {
      r.step_finish_cycles[0] = r.step_finish_cycles.back() + 1;
      expect_violation(run().requests, stats, "moves backwards",
                       "backwards step landmark");
      return;
    }
  }
  GTEST_SKIP() << "seed drew no multi-step request";
}

TEST(OpenLoopAudit, RejectsFinishMismatchedLastLandmark) {
  BatchStats stats = run().stats;
  stats.per_request[0].step_finish_cycles.back() =
      stats.per_request[0].finish_cycle + 1;
  expect_violation(run().requests, stats, "last step landmark",
                   "last landmark != finish");
}

TEST(OpenLoopAudit, RejectsDroppedRequest) {
  BatchStats stats = run().stats;
  // A zero finish_cycle means the request never finished: the SLO partition
  // can no longer balance (attained + violated counts every row, finished
  // does not).
  stats.per_request[2].finish_cycle = 0;
  expect_violation(run().requests, stats, "finished",
                   "unfinished request");
}

// -- SLO accounting ----------------------------------------------------------

TEST(SloAccounting, PartitionsTheBatch) {
  const SloReport slo = slo_accounting(run().stats, kSlo);
  EXPECT_EQ(slo.finished, run().requests.size());
  EXPECT_EQ(slo.attained + slo.violated, slo.finished);
}

TEST(SloAccounting, LooseSloAttainsEverythingAndCountsAllTokens) {
  const SloReport slo =
      slo_accounting(run().stats, run().stats.makespan + 1);
  EXPECT_EQ(slo.attained, run().requests.size());
  EXPECT_EQ(slo.violated, 0u);
  std::uint64_t tokens = 0;
  for (const RequestSpec& r : run().requests) tokens += r.decode_steps;
  EXPECT_EQ(slo.goodput_tokens, tokens);
}

TEST(SloAccounting, ZeroSloViolatesLateDispatches) {
  // With the SLO at 0 cycles only a request dispatched on its arrival
  // cycle attains; this seed's queue-free run still dispatches after
  // arrival, so goodput collapses.
  const SloReport slo = slo_accounting(run().stats, 0);
  EXPECT_EQ(slo.attained + slo.violated, slo.finished);
  EXPECT_GT(slo.violated, 0u);
}

// -- Load sweep ---------------------------------------------------------------

SweepConfig small_sweep() {
  SweepConfig sweep;
  sweep.traffic = small_traffic();
  sweep.gaps = {20'000, 5'000};
  sweep.slo_ttft_cycles = kSlo;
  return sweep;
}

TEST(LoadSweep, ValidateRejectsDegenerateAxes) {
  EXPECT_NO_THROW(small_sweep().validate());
  SweepConfig empty = small_sweep();
  empty.gaps.clear();
  EXPECT_THROW(empty.validate(), std::invalid_argument);
  SweepConfig zero_gap = small_sweep();
  zero_gap.gaps = {5'000, 0};
  EXPECT_THROW(zero_gap.validate(), std::invalid_argument);
  SweepConfig zero_slo = small_sweep();
  zero_slo.slo_ttft_cycles = 0;
  EXPECT_THROW(zero_slo.validate(), std::invalid_argument);
}

// Each point is the audited reduction of a standalone continuous pass over
// the generated workload at that gap, returned in axis order.
TEST(LoadSweep, PointsFollowTheGapAxisAndMatchStandaloneRuns) {
  const SimConfig cfg = small_config();
  const SweepConfig sweep = small_sweep();
  const std::vector<SweepPoint> points =
      run_load_sweep(tiny_model(), cfg, open_loop_pass(), sweep);
  ASSERT_EQ(points.size(), sweep.gaps.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Cycle gap = sweep.gaps[i];
    EXPECT_EQ(points[i].mean_gap, gap);
    EXPECT_DOUBLE_EQ(points[i].offered_qps,
                     cfg.core_hz / static_cast<double>(gap));
    TrafficConfig tc = sweep.traffic;
    tc.mean_gap = gap;
    const RequestBatch batch(tiny_model(), generate_traffic(tc));
    const BatchStats standalone =
        DecodePass(batch, open_loop_pass(), cfg).run();
    EXPECT_EQ(points[i].makespan, standalone.makespan) << "gap " << gap;
  }
}

TEST(LoadSweep, MaxSustainableIsTheDensestGapMeetingTheSlo) {
  const auto point = [](Cycle gap, Cycle p99_ttft) {
    SweepPoint pt;
    pt.mean_gap = gap;
    pt.offered_qps = 1e9 / static_cast<double>(gap);
    pt.p99_ttft = p99_ttft;
    return pt;
  };
  // Densest-first and sparsest-first axes pick the same point: the 2'000
  // gap misses the SLO, so 4'000 is the highest load that sustains it.
  const std::vector<SweepPoint> descending = {
      point(8'000, 10), point(4'000, 100), point(2'000, 101)};
  EXPECT_EQ(max_sustainable_index(descending, 100), 1u);
  const std::vector<SweepPoint> ascending = {
      point(2'000, 101), point(4'000, 100), point(8'000, 10)};
  EXPECT_EQ(max_sustainable_index(ascending, 100), 1u);
  EXPECT_EQ(max_sustainable_index(descending, 9), descending.size());
  EXPECT_EQ(max_sustainable_index({}, 100), 0u);
}

}  // namespace
}  // namespace llamcat
