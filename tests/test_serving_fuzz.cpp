// Seeded-corpus regression suite over the serving-layer fuzzer: each pinned
// seed deterministically replays one full fuzz scenario (machine x batch x
// policy draw - scenario/fuzz.hpp) through the entire invariant contract
// (scenario/invariants.hpp) on every CI run, so the coverage of a long
// `llamcat_stress` sweep survives as a fast regression net.
//
// Pinning workflow (docs/testing.md): when `llamcat_stress` reports
// `FAIL seed S`, reproduce with `llamcat_stress --replay=S`, fix the engine,
// then add S to kPinnedSeeds below so the scenario that found the bug is
// re-checked forever.
#include <gtest/gtest.h>

#include "scenario/fuzz.hpp"

namespace llamcat {
namespace {

using scenario::draw_scenario;
using scenario::FuzzResult;
using scenario::FuzzScenario;
using scenario::run_fuzz_seed;

// The corpus: a contiguous block of sweep seeds (cheap, diverse draws) plus
// hand-picked seeds whose draws exercise the rare corners - paged eviction
// with odd block sizes, starved machines under preemption, bursty arrivals
// with tight budgets. No seed here has ever failed; bug-reproducing seeds
// get appended with a comment naming the fix.
constexpr std::uint64_t kPinnedSeeds[] = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
    11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
    // sweep seeds with notable draws: 57 pages with a block larger than any
    // footprint (nothing is ever swappable), 93 pages at an odd 192-byte
    // block (partial tails everywhere), 148 is a 5-request bursty SRF sweep
    // with 64-byte blocks, 171 pages a 4-request burst at 4 KiB blocks.
    57, 93, 148, 171,
    // prefix-sharing draws through the shared-byte conservation contract:
    // 41 shares a 5-request FCFS burst across TWO prefix groups over paged
    // 128-byte blocks (peer refetch closes only batch-wide), 185 shares one
    // group across three simultaneous arrivals under a tight paged budget
    // (co-resident pins refuse swaps at eviction time).
    41, 185,
    // paged multi-step draws where a request preempted mid-flight resumed
    // into a refetch hold while its stale segment TB count still read as a
    // fresh completion (duplicate step landmarks, skipped operators, chain
    // overrun). Fixed by the explicit request-state machine: a refetching
    // request never takes the stage-handoff path, and a mid-flight
    // preemption clears its segment count.
    226, 554, 749, 1270, 1743, 1904,
};

class PinnedSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PinnedSeed, FullContractHoldsAndReplayIsStable) {
  const std::uint64_t seed = GetParam();
  const FuzzResult r = run_fuzz_seed(seed);
  EXPECT_TRUE(r.ok()) << "seed " << seed << " ("
                      << draw_scenario(seed).summary() << "):\n  "
                      << ::testing::PrintToString(r.violations);
}

// draw_scenario must be a pure function of the seed - otherwise a pinned
// seed no longer replays the scenario that failed.
TEST_P(PinnedSeed, DrawIsAPureFunctionOfTheSeed) {
  const std::uint64_t seed = GetParam();
  const FuzzScenario a = draw_scenario(seed);
  const FuzzScenario b = draw_scenario(seed);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].seq_len, b.requests[i].seq_len);
    EXPECT_EQ(a.requests[i].arrival_cycle, b.requests[i].arrival_cycle);
    EXPECT_EQ(a.requests[i].decode_steps, b.requests[i].decode_steps);
  }
  EXPECT_EQ(a.cfg.seed, b.cfg.seed);
  EXPECT_EQ(a.cfg.core.num_cores, b.cfg.core.num_cores);
}

INSTANTIATE_TEST_SUITE_P(Corpus, PinnedSeed,
                         ::testing::ValuesIn(kPinnedSeeds));

// Seeds 4, 8 and 12 of the corpus draw the open-loop branch (generated
// traffic replaces the hand-rolled batch), so the pinned sweep above
// already replays the generator -> engine -> open-loop audit -> trace
// replay equivalence path on every CI run. Pin the fact itself: if the
// draw procedure ever shifts these seeds back to closed-loop, the corpus
// silently loses that coverage - fail loudly instead.
TEST(FuzzDraw, PinnedCorpusKeepsOpenLoopDraws) {
  for (const std::uint64_t seed : {4u, 8u, 12u}) {
    const FuzzScenario sc = draw_scenario(seed);
    EXPECT_TRUE(sc.open_loop) << "seed " << seed << " (" << sc.summary()
                              << ") no longer draws open-loop";
  }
}

// Distinct seeds must draw distinct scenarios (the sweep is not fuzzing one
// scenario 200 times). Spot-check a window.
TEST(FuzzDraw, NeighboringSeedsDiffer) {
  int distinct = 0;
  const std::string base = draw_scenario(1).summary();
  for (std::uint64_t s = 2; s <= 10; ++s) {
    if (draw_scenario(s).summary() != base) ++distinct;
  }
  EXPECT_GE(distinct, 8);
}

}  // namespace
}  // namespace llamcat
