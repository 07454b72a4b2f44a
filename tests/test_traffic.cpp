// Unit tests for the open-loop traffic generator and the versioned trace
// format (scenario/traffic.hpp): determinism, sampler statistics within
// deterministic tolerances, TrafficConfig validation, and strict trace
// parsing. Statistical assertions here are exact-by-seed, not flaky: the
// generator is a pure function of the config, so each bound below is a
// property of one fixed sample, checked once and then frozen by CI.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/kv_block_pool.hpp"
#include "scenario/traffic.hpp"

namespace llamcat {
namespace {

using scenario::generate_traffic;
using scenario::kNoPrefixGroup;
using scenario::RequestSpec;
using scenario::trace_from_string;
using scenario::trace_to_string;
using scenario::TrafficConfig;

TEST(TrafficGenerator, SameSeedIsByteIdentical) {
  for (std::uint64_t seed : {1ull, 7ull, 12345ull}) {
    TrafficConfig cfg;
    cfg.seed = seed;
    cfg.num_requests = 32;
    cfg.prefix_groups = 3;
    const auto a = generate_traffic(cfg);
    const auto b = generate_traffic(cfg);
    // The trace serialization covers every RequestSpec field, so string
    // equality is byte-identity of the request lists.
    EXPECT_EQ(trace_to_string(a), trace_to_string(b)) << "seed " << seed;
  }
}

TEST(TrafficGenerator, DifferentSeedsDiffer) {
  TrafficConfig a, b;
  a.seed = 1;
  b.seed = 2;
  a.num_requests = b.num_requests = 16;
  EXPECT_NE(trace_to_string(generate_traffic(a)),
            trace_to_string(generate_traffic(b)));
}

TEST(TrafficGenerator, ShapeInvariants) {
  TrafficConfig cfg;
  cfg.num_requests = 64;
  cfg.seq_min = 64;
  cfg.seq_max = 416;
  cfg.steps_min = 2;
  cfg.steps_max = 5;
  const auto reqs = generate_traffic(cfg);
  ASSERT_EQ(reqs.size(), 64u);
  Cycle prev_arrival = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, i);
    EXPECT_GE(reqs[i].arrival_cycle, prev_arrival);
    prev_arrival = reqs[i].arrival_cycle;
    EXPECT_GE(reqs[i].seq_len, cfg.seq_min);
    EXPECT_LE(reqs[i].seq_len, cfg.seq_max);
    EXPECT_EQ(reqs[i].seq_len % cfg.seq_granule, 0u)
        << "seq " << reqs[i].seq_len << " off the mapper granule";
    EXPECT_GE(reqs[i].decode_steps, cfg.steps_min);
    EXPECT_LE(reqs[i].decode_steps, cfg.steps_max);
    EXPECT_EQ(reqs[i].prefix_group, kNoPrefixGroup);
  }
}

TEST(TrafficGenerator, LognormalSeqStaysOnTheGranule) {
  TrafficConfig cfg;
  cfg.num_requests = 128;
  cfg.seq_dist = TrafficDist::kLognormal;
  cfg.seq_min = 32;
  cfg.seq_max = 1024;
  cfg.seq_sigma = 0.8;
  bool interior = false;  // at least one sample off the clamp rails
  for (const RequestSpec& r : generate_traffic(cfg)) {
    EXPECT_GE(r.seq_len, cfg.seq_min);
    EXPECT_LE(r.seq_len, cfg.seq_max);
    EXPECT_EQ(r.seq_len % cfg.seq_granule, 0u);
    if (r.seq_len != cfg.seq_min && r.seq_len != cfg.seq_max) interior = true;
  }
  EXPECT_TRUE(interior);
}

TEST(TrafficGenerator, PoissonMeanGapNearConfigured) {
  // 512 exponential gaps with mean 20000: the sample mean of this exact
  // seed is a fixed number; assert it within a generous +-25% band so the
  // test documents the sampler's scale without pinning its bits.
  TrafficConfig cfg;
  cfg.num_requests = 512;
  cfg.mean_gap = 20'000;
  const auto reqs = generate_traffic(cfg);
  const double mean =
      static_cast<double>(reqs.back().arrival_cycle) /
      static_cast<double>(reqs.size());
  EXPECT_GT(mean, 15'000.0);
  EXPECT_LT(mean, 25'000.0);
}

TEST(TrafficGenerator, BurstyClusters) {
  // Bursty arrivals must show both regimes: in-burst gaps far below the
  // mean and off-gaps far above it.
  TrafficConfig cfg;
  cfg.num_requests = 256;
  cfg.process = TrafficProcess::kBursty;
  cfg.mean_gap = 20'000;
  const auto reqs = generate_traffic(cfg);
  std::size_t tight = 0, wide = 0;
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    const Cycle gap = reqs[i].arrival_cycle - reqs[i - 1].arrival_cycle;
    if (gap < cfg.mean_gap / 2) ++tight;
    if (gap > cfg.mean_gap * 2) ++wide;
  }
  EXPECT_GT(tight, reqs.size() / 4);
  EXPECT_GT(wide, reqs.size() / 32);
}

TEST(TrafficGenerator, DiurnalStaysFinite) {
  TrafficConfig cfg;
  cfg.num_requests = 128;
  cfg.process = TrafficProcess::kDiurnal;
  cfg.diurnal_amplitude = 0.9;
  const auto reqs = generate_traffic(cfg);
  EXPECT_EQ(reqs.size(), 128u);
  EXPECT_GT(reqs.back().arrival_cycle, 0u);
}

TEST(TrafficGenerator, ZipfGroupZeroIsMostPopular) {
  TrafficConfig cfg;
  cfg.num_requests = 512;
  cfg.prefix_groups = 4;
  cfg.zipf_s = 1.2;
  cfg.share_pct = 100;
  std::map<std::uint32_t, std::size_t> counts;
  for (const RequestSpec& r : generate_traffic(cfg)) {
    ASSERT_NE(r.prefix_group, kNoPrefixGroup);
    ASSERT_LT(r.prefix_group, cfg.prefix_groups);
    ASSERT_GE(r.prefix_tokens, 1u);
    ASSERT_LE(r.prefix_tokens, cfg.seq_min);
    ++counts[r.prefix_group];
  }
  // Group popularity is 1/(g+1)^s: group 0 strictly dominates, and the
  // tail group is rarest among the groups that appeared.
  ASSERT_TRUE(counts.count(0));
  for (const auto& [g, n] : counts) {
    if (g != 0) EXPECT_GT(counts[0], n) << "group " << g;
  }
  EXPECT_GT(counts[0], counts.rbegin()->second);
}

TEST(TrafficGenerator, SharePctLeavesPrivateRequests) {
  TrafficConfig cfg;
  cfg.num_requests = 256;
  cfg.prefix_groups = 2;
  cfg.share_pct = 50;
  std::size_t shared = 0;
  for (const RequestSpec& r : generate_traffic(cfg)) {
    if (r.prefix_group != kNoPrefixGroup) ++shared;
  }
  EXPECT_GT(shared, 64u);
  EXPECT_LT(shared, 192u);
}

TEST(TrafficConfigValidate, RejectsBadShapes) {
  const auto expect_throw = [](auto mutate, const char* what) {
    TrafficConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << what;
  };
  expect_throw([](TrafficConfig& c) { c.num_requests = 0; }, "no requests");
  expect_throw([](TrafficConfig& c) { c.mean_gap = 0; }, "zero gap");
  expect_throw(
      [](TrafficConfig& c) {
        c.process = TrafficProcess::kBursty;
        c.burst_size = 0;
      },
      "zero burst");
  expect_throw(
      [](TrafficConfig& c) {
        c.process = TrafficProcess::kDiurnal;
        c.diurnal_amplitude = 1.5;
      },
      "amplitude out of range");
  expect_throw([](TrafficConfig& c) { c.seq_min = 0; }, "zero seq");
  expect_throw(
      [](TrafficConfig& c) {
        c.seq_min = 512;
        c.seq_max = 64;
      },
      "inverted seq range");
  expect_throw([](TrafficConfig& c) { c.seq_granule = 0; }, "zero granule");
  expect_throw([](TrafficConfig& c) { c.seq_min = 65; c.seq_max = 512; },
               "seq_min off the granule");
  expect_throw([](TrafficConfig& c) { c.seq_max = 500; },
               "seq_max off the granule");
  expect_throw(
      [](TrafficConfig& c) {
        c.seq_dist = TrafficDist::kLognormal;
        c.seq_sigma = 0.0;
      },
      "zero sigma");
  expect_throw([](TrafficConfig& c) { c.steps_min = 0; }, "zero steps");
  expect_throw(
      [](TrafficConfig& c) {
        c.steps_min = 5;
        c.steps_max = 2;
      },
      "inverted steps range");
  expect_throw(
      [](TrafficConfig& c) {
        c.prefix_groups = 2;
        c.zipf_s = -1.0;
      },
      "negative zipf");
  expect_throw(
      [](TrafficConfig& c) {
        c.prefix_groups = 2;
        c.share_pct = 101;
      },
      "share_pct > 100");
  expect_throw(
      [](TrafficConfig& c) {
        c.prefix_groups = 2;
        c.share_pct = 0;
      },
      "share_pct 0 with groups");
  // Non-finite doubles fail their range checks (NaN compares false both
  // ways, and a non-finite sigma would reach an undefined conversion).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    expect_throw(
        [x](TrafficConfig& c) {
          c.seq_dist = TrafficDist::kLognormal;
          c.seq_sigma = x;
        },
        "non-finite lognormal sigma");
    expect_throw(
        [x](TrafficConfig& c) {
          c.steps_dist = TrafficDist::kLognormal;
          c.seq_sigma = x;
        },
        "non-finite sigma under lognormal steps");
    expect_throw(
        [x](TrafficConfig& c) {
          c.prefix_groups = 2;
          c.zipf_s = x;
        },
        "non-finite zipf");
    expect_throw(
        [x](TrafficConfig& c) {
          c.process = TrafficProcess::kDiurnal;
          c.diurnal_amplitude = x;
        },
        "non-finite amplitude");
  }
  TrafficConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

// -- trace format ------------------------------------------------------------

TEST(TraceFormat, RoundTripIsByteStable) {
  TrafficConfig cfg;
  cfg.num_requests = 24;
  cfg.prefix_groups = 2;
  const auto reqs = generate_traffic(cfg);
  const std::string text = trace_to_string(reqs);
  const auto replayed = trace_from_string(text);
  // write(read(write(x))) == write(x): the format loses nothing.
  EXPECT_EQ(trace_to_string(replayed), text);
  ASSERT_EQ(replayed.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(replayed[i].id, reqs[i].id);
    EXPECT_EQ(replayed[i].seq_len, reqs[i].seq_len);
    EXPECT_EQ(replayed[i].arrival_cycle, reqs[i].arrival_cycle);
    EXPECT_EQ(replayed[i].decode_steps, reqs[i].decode_steps);
    EXPECT_EQ(replayed[i].prefix_group, reqs[i].prefix_group);
    EXPECT_EQ(replayed[i].prefix_tokens, reqs[i].prefix_tokens);
  }
}

TEST(TraceFormat, HandBuiltPrivateAndSharedRows) {
  std::vector<RequestSpec> reqs(2);
  reqs[0].id = 0;
  reqs[0].seq_len = 256;
  reqs[0].arrival_cycle = 0;
  reqs[0].decode_steps = 2;
  reqs[1].id = 1;
  reqs[1].seq_len = 128;
  reqs[1].arrival_cycle = 5000;
  reqs[1].decode_steps = 1;
  reqs[1].prefix_group = 3;
  reqs[1].prefix_tokens = 64;
  EXPECT_EQ(trace_to_string(reqs),
            "llamcat-trace v1\n"
            "requests 2\n"
            "0 256 0 2 - 0\n"
            "1 128 5000 1 3 64\n");
}

TEST(TraceFormat, RejectsMalformedTraces) {
  const auto expect_reject = [](const std::string& text, const char* what) {
    try {
      (void)trace_from_string(text);
      FAIL() << "accepted " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("trace: ", 0), 0u) << what;
    }
  };
  expect_reject("", "empty input");
  expect_reject("not-a-trace v1\nrequests 0\n", "bad magic");
  expect_reject("llamcat-trace v999\nrequests 0\n", "future version");
  expect_reject("llamcat-trace v1 extra\nrequests 0\n",
                "trailing magic tokens");
  expect_reject("llamcat-trace v1\nrows 1\n0 64 0 1 - 0\n",
                "bad count keyword");
  expect_reject("llamcat-trace v1\nrequests 2\n0 64 0 1 - 0\n",
                "fewer rows than declared");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 -\n",
                "missing field");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 - 0 9\n",
                "trailing row tokens");
  expect_reject("llamcat-trace v1\nrequests 1\n0 0 0 1 - 0\n",
                "zero seq_len");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 0 - 0\n",
                "zero decode_steps");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 - 5\n",
                "prefix tokens without a group");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 2 0\n",
                "group without prefix tokens");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 2 65\n",
                "prefix longer than the sequence");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 x 0\n",
                "non-numeric group");
  expect_reject("llamcat-trace v1\nrequests 2\n0 64 0 1 - 0\n0 64 0 1 - 0\n",
                "duplicate id");
  expect_reject("llamcat-trace v1\nrequests 1\n0 64 0 1 - 0\ngarbage\n",
                "trailing garbage");
}

}  // namespace
}  // namespace llamcat
