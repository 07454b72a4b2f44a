// Tests of the benchmark's own code: span self time, the serving and
// fastpath reductions, and the result line against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;
using llamcat::scenario::BatchStats;
using llamcat::scenario::RequestStats;

namespace {

Span span(const char* name, double start, double end, int parent,
          std::uint32_t rep = 0) {
  return Span{name, start, end, parent, "w", rep};
}

TEST(SelfTime, SubtractsChildren) {
  const std::vector<Span> spans = {
      span("perfbench.rep", 0.0, 10.0, -1),
      span("sim.build", 1.0, 3.0, 0),
      span("sim.run", 4.0, 9.0, 0),
      span("trace.map", 5.0, 6.0, 2),
  };
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 2.0 - 5.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [1,3] and [2,5] overlap; [8,12] sticks out past the parent's
  // end. Covered part of [0,10]: [1,5] and [8,10], 6 s.
  const std::vector<Span> spans = {
      span("scenario.run", 0.0, 10.0, -1),
      span("sim.run", 1.0, 3.0, 0),
      span("sim.run", 2.0, 5.0, 0),
      span("sim.run", 8.0, 12.0, 0),
  };
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 4.0);
}

TEST(SelfTime, ChildrenCoveringEverythingLeaveZero) {
  const std::vector<Span> spans = {
      span("scenario.run", 2.0, 4.0, -1),
      span("sim.run", 1.0, 5.0, 0),
  };
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 0.0);
}

TEST(SelfTime, SumsByNameAndLayerPerRep) {
  const std::vector<Span> spans = {
      span("perfbench.rep", 0.0, 10.0, -1, 0),
      span("sim.run", 1.0, 4.0, 0, 0),
      span("sim.build", 4.0, 5.0, 0, 0),
      span("perfbench.rep", 20.0, 30.0, -1, 1),
      span("sim.run", 21.0, 22.0, 3, 1),
  };
  const auto rep0 = self_seconds_by_name(spans, 0);
  EXPECT_DOUBLE_EQ(rep0.at("sim.run"), 3.0);
  EXPECT_DOUBLE_EQ(rep0.at("perfbench.rep"), 6.0);
  const auto layers0 = self_seconds_by_layer(spans, 0);
  EXPECT_DOUBLE_EQ(layers0.at("sim"), 4.0);
  EXPECT_DOUBLE_EQ(self_seconds_by_name(spans, 1).at("sim.run"), 1.0);
  EXPECT_DOUBLE_EQ(self_seconds_by_name(spans).at("sim.run"), 4.0);
}

TEST(Tracer, RecordsNestingOnlyWhileEnabled) {
  Tracer t;
  { ScopedSpan off(t, "sim.run"); }
  EXPECT_TRUE(t.spans().empty());
  t.enable(true);
  t.set_context("logit_mha", 3);
  {
    ScopedSpan outer(t, "perfbench.rep");
    ScopedSpan inner(t, "sim.run");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].rep, 3u);
  EXPECT_EQ(t.spans()[1].workload, "logit_mha");
  EXPECT_LE(t.spans()[1].end_s, t.spans()[0].end_s);
  const int a = t.begin("a");
  t.begin("b");
  EXPECT_THROW(t.end(a), std::logic_error);
}

TEST(Reduce, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

RequestStats request(std::uint32_t id, llamcat::Cycle arrival,
                     llamcat::Cycle first_dispatch,
                     std::vector<llamcat::Cycle> step_finish) {
  RequestStats r;
  r.id = id;
  r.streamed = true;
  r.arrival_cycle = arrival;
  r.admit_cycle = first_dispatch;
  r.slice.first_dispatch_cycle = first_dispatch;
  r.decode_steps = static_cast<std::uint32_t>(step_finish.size());
  r.finish_cycle = step_finish.back();
  r.step_finish_cycles = std::move(step_finish);
  return r;
}

TEST(Reduce, ServingFiguresUseNearestRankAndTheSlo) {
  BatchStats s;
  s.mode = llamcat::ExecutionMode::kContinuous;
  s.total.core_hz = 2e9;
  s.makespan = 1'000'000;
  // TTFTs (first dispatch - due arrival): 1k, 2k, ..., 10k cycles.
  for (std::uint32_t i = 0; i < 10; ++i) {
    const llamcat::Cycle arrival = 50'000 * i;
    const llamcat::Cycle ttft = 1'000 * (i + 1);
    // Two-step requests: token gaps of 10k..100k cycles.
    const llamcat::Cycle first_token = arrival + ttft + 5'000;
    s.per_request.push_back(request(
        i, arrival, arrival + ttft,
        {first_token, first_token + 10'000 * (i + 1)}));
  }
  const ServingFigures f = serving_figures(s, /*slo_ttft_cycles=*/4'000);
  EXPECT_DOUBLE_EQ(f.ttft_p50_kcycles, 5.0);   // ceil(0.5 * 10) = 5th
  EXPECT_DOUBLE_EQ(f.ttft_p90_kcycles, 9.0);   // ceil(0.9 * 10) = 9th
  EXPECT_DOUBLE_EQ(f.tbt_p90_kcycles, 90.0);
  // Requests with TTFT <= 4k: four of them, two tokens each, over
  // 1M cycles at 2 GHz (0.5 ms).
  EXPECT_DOUBLE_EQ(f.goodput_tps, 8.0 / 0.5e-3);
}

TEST(Reduce, ParsesFastpathLines) {
  const FastpathTotals t = parse_fastpath(
      "noise\n"
      "[fastpath] cycles=1000 stepped=900 skipped=100 windows=5 "
      "avg_window=20.0\n"
      "[perfbench] traced rep\n"
      "[fastpath] cycles=3000 stepped=1100 skipped=1900 windows=9 "
      "avg_window=211.1\n");
  EXPECT_EQ(t.cycles, 4000u);
  EXPECT_EQ(t.stepped, 2000u);
  EXPECT_DOUBLE_EQ(t.stepped_frac(), 0.5);
  EXPECT_DOUBLE_EQ(parse_fastpath("").stepped_frac(), 0.0);
  EXPECT_THROW((void)parse_fastpath("[fastpath] garbage\n"),
               std::runtime_error);
}

std::string read_benchmark_json() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// (name, unit) pairs of one metric list of BENCHMARK.json.
std::set<std::pair<std::string, std::string>> declared(const std::string& json,
                                                       const std::string& key) {
  const std::size_t from = json.find('"' + key + '"');
  const std::size_t to = json.find(']', from);
  const std::string section = json.substr(from, to - from);
  const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::set<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace((*it)[1], (*it)[2]);
  }
  return out;
}

TEST(Output, CatalogMatchesBenchmarkJson) {
  const std::string json = read_benchmark_json();
  ASSERT_FALSE(json.empty());
  std::set<std::pair<std::string, std::string>> e2e, layer;
  for (const MetricDef& m : metric_catalog()) {
    (m.kind == MetricKind::kEndToEnd ? e2e : layer)
        .emplace(std::string(m.name), std::string(m.unit));
  }
  EXPECT_EQ(declared(json, "end_to_end"), e2e);
  EXPECT_EQ(declared(json, "per_layer"), layer);
}

TEST(Output, EveryDeclaredWorkloadExists) {
  const std::string json = read_benchmark_json();
  const std::size_t from = json.find("\"workloads\"");
  const std::string section = json.substr(from, json.find(']', from) - from);
  const std::regex entry(R"re("name"\s*:\s*"([^"]+)")re");
  int n = 0;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it, ++n) {
    EXPECT_NO_THROW((void)make_workload((*it)[1].str(), 1, kDefaultTrafficSeed))
        << (*it)[1];
  }
  EXPECT_EQ(n, 3);
  EXPECT_THROW((void)make_workload("no_such_workload", 1, 1),
               std::invalid_argument);
}

TEST(Output, ResultLineNamesEveryMetricWithItsUnit) {
  for (const MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    RunResult r;
    r.correct = true;
    r.attempted = 4;
    for (const MetricDef& m : metric_catalog()) {
      r.values[std::string(m.name)] = 1.5;
    }
    const std::string line = result_line(r, kind);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
                         "\"metrics\": {",
                         0),
              0u);
    for (const MetricDef& m : metric_catalog()) {
      std::ostringstream item;
      item << '"' << m.name << "\": {\"value\": 1.5, \"unit\": \"" << m.unit
           << "\"}";
      EXPECT_EQ(line.find(item.str()) != std::string::npos, m.kind == kind)
          << item.str();
    }
    r.values.erase(kind == MetricKind::kEndToEnd ? "setup_s" : "sim.run_s");
    EXPECT_THROW((void)result_line(r, kind), std::logic_error);
  }
}

}  // namespace
