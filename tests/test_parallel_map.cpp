// Direct unit tests for parallel_map (common/parallel_map.hpp):
// index-order results, exactly-once execution, lowest-index exception
// propagation, the empty range, and the jobs=1 vs jobs=N bit-identity
// contract of run_fuzz_sweep. The jobs values cover every branch of the
// worker count: 0 (hardware concurrency), 1 (the caller's thread), 4 (a
// fan-out) and 100 (more workers than items, clamped to the item count).
//
// Everything here also runs under the TSan CI job, so these tests double
// as the race harness for the shared index counter and the per-slot
// result and exception writes.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_map.hpp"
#include "scenario/fuzz.hpp"

namespace llamcat {
namespace {

// parallel_map's contract holds at every width: jobs=1 runs in the
// caller's thread, the others fan out across worker threads.
class ParallelMap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelMap, ResultsComeBackInIndexOrder) {
  const auto out = parallel_map(
      64, GetParam(), [](std::size_t i) { return std::to_string(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::to_string(i * i));
  }
}

TEST_P(ParallelMap, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> runs(64);
  parallel_map(runs.size(), GetParam(), [&runs](std::size_t i) {
    return ++runs[i];
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

// The lowest failing index's exception surfaces, whichever worker fails
// first - the one the serial loop would have thrown.
TEST_P(ParallelMap, RethrowsLowestIndexException) {
  for (int round = 0; round < 8; ++round) {
    try {
      parallel_map(16, GetParam(), [](std::size_t i) {
        if (i == 5 || i == 11) throw std::runtime_error(std::to_string(i));
        return i;
      });
      FAIL() << "parallel_map swallowed the failures";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
  }
}

TEST_P(ParallelMap, EmptyRangeIsEmptyResult) {
  bool called = false;
  const auto out = parallel_map(0, GetParam(), [&called](std::size_t i) {
    called = true;
    return i;
  });
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(called);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelMap,
                         ::testing::Values(0u, 1u, 4u, 100u),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// The parallel-sweep determinism contract: run_fuzz_sweep fills the same
// slots with the same results no matter how many workers execute it.
TEST(FuzzSweep, ParallelMatchesSerial) {
  const std::uint64_t kSeed = 20250808;
  const std::uint64_t kN = 6;
  const auto serial = scenario::run_fuzz_sweep(kSeed, kN, /*jobs=*/1);
  const auto parallel = scenario::run_fuzz_sweep(kSeed, kN, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].digest, parallel[i].digest) << "seed slot " << i;
    EXPECT_EQ(serial[i].violations, parallel[i].violations);
  }
}

}  // namespace
}  // namespace llamcat
