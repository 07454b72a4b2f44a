// End-to-end llamcat_cli transcripts: each command line below runs
// in-process through cli_main, and its stdout is pinned byte for byte
// against tests/golden_cli_transcripts.inc (the 100-request audited
// open-loop run pins its --digest). Structural checks ride along: the
// decode pipeline total is the sum of its stages, a recorded trace
// replays to the generating run's digest, and a rejected configuration
// exits 2 with an error line.
//
// Regenerating after an intentional output change, from the repo root:
//   export LLAMCAT_GOLDEN_REGEN=tests/golden_cli_transcripts.inc
//   ./build/test_cli_transcripts
// then unset it, rebuild and rerun. Regenerate with an unfiltered run: the
// file is rewritten with exactly the cases that ran.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/options.hpp"

namespace llamcat {
namespace {

struct Golden {
  const char* name;
  const char* transcript;
};

constexpr Golden kGolden[] = {
#include "golden_cli_transcripts.inc"
};

/// Transcripts recorded under LLAMCAT_GOLDEN_REGEN, in run order.
std::vector<std::pair<std::string, std::string>>& recorded() {
  static std::vector<std::pair<std::string, std::string>> r;
  return r;
}

const char* regen_path() {
  const char* path = std::getenv("LLAMCAT_GOLDEN_REGEN");
  return path != nullptr && *path != '\0' ? path : nullptr;
}

/// Writes every recorded transcript to the golden file after the last test.
class RegenEnvironment : public testing::Environment {
 public:
  void TearDown() override {
    const char* path = regen_path();
    if (path == nullptr) return;
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot open " << path;
    out << "// Generated by test_cli_transcripts with LLAMCAT_GOLDEN_REGEN;"
           " do not\n// edit by hand. {case name, llamcat_cli stdout}.\n"
           "// clang-format off\n";
    for (const auto& [name, text] : recorded()) {
      out << "{\"" << name << "\", R\"transcript(" << text
          << ")transcript\"},\n";
    }
    out << "// clang-format on\n";
  }
};

testing::Environment* const kRegen =
    testing::AddGlobalTestEnvironment(new RegenEnvironment);

/// Compares `actual` with the checked-in transcript `name`, or records it
/// when regenerating.
void expect_golden(const std::string& name, const std::string& actual) {
  if (regen_path() != nullptr) {
    recorded().emplace_back(name, actual);
    return;
  }
  for (const Golden& g : kGolden) {
    if (name == g.name) {
      EXPECT_EQ(actual, g.transcript) << "transcript " << name;
      return;
    }
  }
  ADD_FAILURE() << "no golden transcript " << name
                << " (regenerate with LLAMCAT_GOLDEN_REGEN)";
}

struct CliRun {
  int rc = -1;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args) {
  const std::vector<std::string_view> views(args.begin(), args.end());
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.rc = cli_main(views, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

/// Runs a command line that must succeed and returns its stdout.
std::string cli_ok(const std::vector<std::string>& args) {
  const CliRun run = cli(args);
  EXPECT_EQ(run.rc, 0) << run.err;
  EXPECT_EQ(run.err, "");
  return run.out;
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// The machine most cases run on: small enough for a sub-second run.
const std::vector<std::string> kSmall = {"--cores=4", "--llc-mb=1",
                                         "--slices=2"};
/// Open-loop traffic of the traffic and trace-replay cases.
const std::vector<std::string> kTraffic = {
    "--op=batch",        "--mode=continuous",    "--traffic=poisson",
    "--requests=4",      "--traffic-gap=50000",  "--traffic-seq=64,256",
    "--layers=1",        "--cores=4",            "--llc-mb=1",
    "--slices=2",        "--no-gemv",            "--policy=dynmg+BMA"};
/// The replay side of kTraffic: the same machine, the batch from a trace.
const std::vector<std::string> kReplay = {
    "--op=batch", "--mode=continuous", "--layers=1",  "--cores=4",
    "--llc-mb=1", "--slices=2",        "--no-gemv",   "--policy=dynmg+BMA"};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "test_cli_transcripts_" + name;
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = 0; (at = s.find(from, at)) != std::string::npos;
       at += to.size()) {
    s.replace(at, from.size(), to);
  }
  return s;
}

TEST(CliTranscripts, DecodePipeline) {
  // Logit and Attend run as independent fresh-machine stages: both are
  // reported and the pipeline total is the sum of their cycles.
  const std::string out =
      cli_ok(concat({"--op=decode", "--seq=256"}, kSmall));
  expect_golden("decode_pipeline", out);
  EXPECT_NE(out.find("\n== logit/"), std::string::npos);
  EXPECT_NE(out.find("\n== attend/"), std::string::npos);

  std::istringstream lines(out);
  std::uint64_t sum = 0;
  std::uint64_t total = 0;
  int stages = 0;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string key;
    words >> key;
    if (key == "cycles") {
      std::uint64_t cycles = 0;
      words >> cycles;
      sum += cycles;
      ++stages;
    } else if (line.rfind("pipeline total: ", 0) == 0) {
      std::istringstream(line.substr(16)) >> total;
    }
  }
  EXPECT_EQ(stages, 2);
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, sum);
}

TEST(CliTranscripts, CoScheduled) {
  expect_golden("coscheduled",
                cli_ok(concat({"--op=batch", "--mode=coscheduled",
                               "--requests=4", "--layers=1", "--seq=256",
                               "--no-gemv", "--policy=dynmg+BMA"},
                              kSmall)));
}

TEST(CliTranscripts, ContinuousSkewAndMidPassArrivals) {
  expect_golden("continuous",
                cli_ok(concat({"--op=batch", "--mode=continuous",
                               "--seqs=1024,128,128", "--arrivals=0,0,60000",
                               "--steps=2", "--layers=1", "--no-gemv",
                               "--policy=dynmg+BMA"},
                              kSmall)));
}

TEST(CliTranscripts, ServingBudgetSrfPreemption) {
  expect_golden(
      "serving",
      cli_ok(concat({"--op=batch", "--mode=continuous", "--seqs=1024,128,128",
                     "--arrivals=0,20000,60000", "--layers=1", "--no-gemv",
                     "--policy=dynmg+BMA", "--admit-policy=srf",
                     "--kv-budget=2359296", "--preempt"},
                    kSmall)));
}

TEST(CliTranscripts, PagedEvictionColdBlocks) {
  expect_golden(
      "paging",
      cli_ok({"--op=batch", "--mode=continuous", "--seqs=1024,128,128",
              "--arrivals=0,20000,60000", "--layers=1", "--cores=4",
              "--llc-mb=2", "--slices=2", "--no-gemv", "--policy=dynmg+BMA",
              "--admit-policy=srf", "--kv-budget=2359296", "--preempt",
              "--kv-evict=cold-blocks", "--refetch-cost=2"}));
}

TEST(CliTranscripts, PrefixSharing) {
  expect_golden(
      "prefix_sharing",
      cli_ok({"--op=batch", "--mode=continuous", "--seqs=512,512,128",
              "--arrivals=0,4000,8000", "--layers=1", "--cores=4",
              "--llc-mb=2", "--slices=2", "--no-gemv", "--policy=dynmg+BMA",
              "--admit-policy=fcfs", "--kv-budget=1572864", "--kv-share=on",
              "--prefix-groups=0,0,0", "--prefix-tokens=256,256,0"}));
}

TEST(CliTranscripts, PagedMultiStepOpenLoopAudited) {
  // Multi-step requests preempted mid-flight resume into a refetch hold
  // under cold-block eviction and prefix sharing; --audit arms the
  // in-engine ledger auditor, which fails the run on a broken invariant.
  const std::vector<std::string> args = {
      "--op=batch",           "--mode=continuous",
      "--traffic=poisson",    "--requests=100",
      "--traffic-seed=1",     "--traffic-gap=40000",
      "--traffic-seq=32,128", "--traffic-seq-dist=lognormal",
      "--traffic-steps=1,2",  "--traffic-groups=4",
      "--admit-policy=srf",   "--kv-budget=1048576",
      "--preempt",            "--kv-evict=cold-blocks",
      "--kv-share=on",        "--layers=1",
      "--no-gemv",            "--cores=4",
      "--llc-mb=1",           "--slices=2",
      "--policy=dynmg+BMA",   "--audit",
      "--digest"};
  const std::vector<std::string_view> views(args.begin(), args.end());
  const ParseResult parsed = parse_cli_options(views);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.options->pass.audit);
  expect_golden("paged_multistep_digest", cli_ok(args));
}

TEST(CliTranscripts, OpenLoopTrafficRecordsTrace) {
  const std::string trace = temp_path("traffic.trace");
  const std::string out =
      cli_ok(concat(kTraffic, {"--trace-out=" + trace}));
  expect_golden("traffic", replace_all(out, trace, "ci-run.trace"));
  std::ifstream in(trace);
  EXPECT_TRUE(in.good()) << trace;
}

TEST(CliTranscripts, TraceReplayReproducesDigest) {
  // The recorded trace replayed as a fixed batch must reproduce the
  // generating run byte for byte: the record/replay contract of
  // docs/workloads.md, end to end through the CLI.
  const std::string trace = temp_path("replay.trace");
  cli_ok(concat(kTraffic, {"--trace-out=" + trace}));
  const std::string generated = cli_ok(concat(kTraffic, {"--digest"}));
  const std::string replayed =
      cli_ok(concat(kReplay, {"--trace-in=" + trace, "--digest"}));
  EXPECT_FALSE(generated.empty());
  EXPECT_EQ(replayed, generated);
  expect_golden("traffic_digest", generated);
}

TEST(CliTranscripts, RejectedConfigExitsTwo) {
  // An LLC size whose byte count overflows 64 bits and a NaN bypass keep
  // probability are configuration errors: exit code 2, not a crash or a
  // run.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--llc-mb=17592186044416"}, "error: bad --llc-mb: "},
       {{"--bypass=prob", "--bypass-keep-p=nan"},
        "error: bad --bypass-keep-p: "}};
  for (const auto& [args, error] : cases) {
    const CliRun run = cli(args);
    EXPECT_EQ(run.rc, 2) << error;
    EXPECT_EQ(run.out, "") << error;
    EXPECT_EQ(run.err.rfind(error, 0), 0u) << run.err;
  }
}

}  // namespace
}  // namespace llamcat
