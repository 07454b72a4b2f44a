// Direct unit tests for parallel_map and the ThreadPool / TaskGroup it is
// built on (common/thread_pool.hpp): index-order results, exactly-once
// execution, lowest-index exception propagation, pool reuse across
// batches, and the jobs=1 vs jobs=N bit-identity contract of
// run_fuzz_sweep.
//
// Everything here also runs under the TSan CI job, so these tests double
// as the race harness for the pool's queue and the TaskGroup latch.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "scenario/fuzz.hpp"

namespace llamcat {
namespace {

// parallel_map's contract holds at every width: jobs=1 runs in the
// caller's thread, jobs=4 fans out across a pool.
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

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelMap, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.post([&count] { ++count; });
    }
    // Destructor joins after the queue drains: no submitted job is lost.
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(TaskGroup, WaitsForAllSlots) {
  ThreadPool pool(4);
  TaskGroup group(32);
  std::vector<int> out(32, 0);
  for (std::size_t i = 0; i < 32; ++i) {
    group.run(pool, i, [&out, i] { out[i] = static_cast<int>(i) + 1; });
  }
  group.wait();
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 32 * 33 / 2);
}

// wait() rethrows the LOWEST-slot failure regardless of completion order -
// the same exception the sequential loop would have thrown first, so error
// behavior stays independent of thread scheduling.
TEST(TaskGroup, RethrowsLowestSlotException) {
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    TaskGroup group(8);
    for (std::size_t i = 0; i < 8; ++i) {
      group.run(pool, i, [i] {
        if (i == 2 || i == 6) {
          throw std::runtime_error("slot " + std::to_string(i));
        }
      });
    }
    try {
      group.wait();
      FAIL() << "wait() swallowed the failures";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot 2");
    }
  }
}

// Destroying a group the instant wait() returns must be safe: finish()
// notifies while still holding the latch mutex, so the last worker never
// touches the condition variable after wait() can observe pending_ == 0.
// TSan caught the notify-after-unlock version of finish() through exactly
// this create/wait/destroy cycle; the tight loop keeps the window hot.
TEST(TaskGroup, SafeToDestroyImmediatelyAfterWait) {
  ThreadPool pool(4);
  for (int round = 0; round < 256; ++round) {
    TaskGroup group(4);
    for (std::size_t i = 0; i < 4; ++i) {
      group.run(pool, i, [] {});
    }
    group.wait();
  }
}

TEST(TaskGroup, PoolIsReusableAcrossGroups) {
  ThreadPool pool(3);
  for (int sweep = 0; sweep < 4; ++sweep) {
    TaskGroup group(16);
    std::atomic<int> count{0};
    for (std::size_t i = 0; i < 16; ++i) {
      group.run(pool, i, [&count] { ++count; });
    }
    group.wait();
    EXPECT_EQ(count.load(), 16);
  }
}

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
