// CSV/JSON export tests: structure, counter-union expansion, escaping,
// and numeric round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/report.hpp"

namespace llamcat {
namespace {

ExperimentResult result(const std::string& name, Cycle cycles) {
  ExperimentResult r;
  r.name = name;
  r.stats.cycles = cycles;
  r.stats.core_hz = 1e9;
  r.stats.l2_hit_rate = 0.5;
  r.stats.dram_reads = 42;
  r.stats.counters.set("llc.hits", 7);
  r.wall_seconds = 0.25;
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

std::size_t count_fields(const std::string& line, char sep) {
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), sep)) +
         1;
}

TEST(CsvReport, HeaderPlusOneRowPerResult) {
  const std::vector<ExperimentResult> rs = {result("a", 100),
                                            result("b", 200)};
  std::ostringstream os;
  write_csv(os, rs);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].substr(0, 12), "name,cycles,");
  EXPECT_EQ(lines[1].substr(0, 6), "a,100,");
  EXPECT_EQ(lines[2].substr(0, 6), "b,200,");
}

TEST(CsvReport, RowsHaveHeaderFieldCount) {
  const std::vector<ExperimentResult> rs = {result("a", 100),
                                            result("b", 200)};
  std::ostringstream os;
  write_csv(os, rs);
  const auto lines = lines_of(os.str());
  const std::size_t n = count_fields(lines[0], ',');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(count_fields(lines[i], ','), n) << "row " << i;
  }
}

TEST(CsvReport, CounterUnionColumns) {
  auto a = result("a", 100);
  auto b = result("b", 200);
  a.stats.counters.set("dram.reads", 11);   // only in a
  b.stats.counters.set("noc.flits", 22);    // only in b
  const std::vector<ExperimentResult> rs = {a, b};
  std::ostringstream os;
  write_csv(os, rs);
  const auto lines = lines_of(os.str());
  EXPECT_NE(lines[0].find("dram.reads"), std::string::npos);
  EXPECT_NE(lines[0].find("noc.flits"), std::string::npos);
  EXPECT_NE(lines[0].find("llc.hits"), std::string::npos);
  // Same field count everywhere despite the asymmetric counters.
  const std::size_t n = count_fields(lines[0], ',');
  EXPECT_EQ(count_fields(lines[1], ','), n);
  EXPECT_EQ(count_fields(lines[2], ','), n);
}

TEST(JsonReport, ContainsKeysAndCounters) {
  const std::vector<ExperimentResult> rs = {result("run-1", 123)};
  std::ostringstream os;
  write_json(os, rs);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"name\": \"run-1\""), std::string::npos);
  EXPECT_NE(j.find("\"cycles\": 123"), std::string::npos);
  EXPECT_NE(j.find("\"llc.hits\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"wall_seconds\": 0.25"), std::string::npos);
}

TEST(JsonReport, BalancedBracesAndBrackets) {
  const std::vector<ExperimentResult> rs = {result("a", 1), result("b", 2)};
  std::ostringstream os;
  write_json(os, rs);
  const std::string j = os.str();
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(JsonReport, EscapesQuotesInNames) {
  auto r = result("run \"quoted\"", 1);
  std::ostringstream os;
  write_json(os, std::vector<ExperimentResult>{r});
  EXPECT_NE(os.str().find("run \\\"quoted\\\""), std::string::npos);
}

TEST(JsonReport, SingleRunOverloadOmitsWallSeconds) {
  std::ostringstream os;
  SimStats s;
  s.cycles = 9;
  s.core_hz = 1e9;
  write_json(os, "solo", s);
  EXPECT_NE(os.str().find("\"name\": \"solo\""), std::string::npos);
  EXPECT_EQ(os.str().find("wall_seconds"), std::string::npos);
}

TEST(JsonReport, EmptyResultListIsValidArray) {
  std::ostringstream os;
  write_json(os, std::vector<ExperimentResult>{});
  EXPECT_EQ(os.str(), "[\n]\n");
}

}  // namespace
}  // namespace llamcat
