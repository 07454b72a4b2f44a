// Unit tests: the continuous engine's request state machine and landmarks,
// driven directly through ServingEngine's edges with no System in the
// loop - illegal edges, stream-clock hops and the next arrival / refetch
// landing the skip-ahead hint publishes.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/serving_engine.hpp"

namespace llamcat {
namespace {

using scenario::AdmitPolicy;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ReqState;
using scenario::RequestBatch;
using scenario::RequestSpec;
using scenario::ServingEngine;

SimConfig small_config() {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  return cfg;
}

ModelShape tiny_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

/// A one-layer continuous pass over requests with the given arrival
/// cycles (ids 0, 1, ... in batch order, 64-token contexts, one decode
/// step, no GEMV: two operators per request).
DecodePass make_pass(std::initializer_list<Cycle> arrivals,
                     DecodePassConfig pc = {}) {
  std::vector<RequestSpec> reqs;
  for (const Cycle a : arrivals) {
    RequestSpec r;
    r.id = static_cast<std::uint32_t>(reqs.size());
    r.seq_len = 64;
    r.arrival_cycle = a;
    reqs.push_back(r);
  }
  pc.mode = scenario::ExecutionMode::kContinuous;
  pc.num_layers = 1;
  pc.include_gemv = false;
  return DecodePass(RequestBatch(tiny_model(), std::move(reqs)), pc,
                    small_config());
}

ServingEngine engine_of(const DecodePass& pass, BatchStats& out) {
  return ServingEngine(pass.batch(), pass.pass_config(), pass.schedule(),
                       out);
}

/// Runs `fn`, which must throw std::logic_error whose message contains
/// every one of `parts`.
void expect_logic_error(const std::function<void()>& fn,
                        std::initializer_list<std::string> parts) {
  try {
    fn();
    ADD_FAILURE() << "no std::logic_error thrown";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    for (const std::string& p : parts) {
      EXPECT_NE(what.find(p), std::string::npos)
          << "'" << p << "' missing from: " << what;
    }
  }
}

TEST(ServingEngineEdges, EachIllegalEdgeThrowsNamingIt) {
  const DecodePass pass = make_pass({0, 100});
  BatchStats out;
  ServingEngine eng = engine_of(pass, out);
  ASSERT_EQ(out.per_request.size(), 2u);
  EXPECT_EQ(eng.state(0), ReqState::kPending);

  expect_logic_error([&] { eng.admit(0, 0); },
                     {"ServingEngine::admit", "request 0", "pending",
                      "not waiting"});
  ASSERT_TRUE(eng.notice_arrivals(0));
  EXPECT_EQ(eng.state(0), ReqState::kWaiting);
  EXPECT_EQ(eng.state(1), ReqState::kPending);

  // Every edge out of a waiting request but admission.
  expect_logic_error([&] { eng.preempt(0, 0); },
                     {"ServingEngine::preempt", "waiting", "not running"});
  expect_logic_error([&] { eng.resume(0, 0); },
                     {"ServingEngine::resume", "waiting", "not preempted"});
  expect_logic_error([&] { (void)eng.land_refetch(0, 0); },
                     {"ServingEngine::land_refetch", "not refetching"});
  expect_logic_error([&] { eng.finish(0, 0); },
                     {"ServingEngine::finish", "waiting", "not running"});
  expect_logic_error([&] { (void)eng.take_next(0); },
                     {"ServingEngine::take_next", "waiting"});

  eng.admit(0, 10);
  EXPECT_EQ(eng.state(0), ReqState::kRunning);
  EXPECT_EQ(out.per_request[0].admit_cycle, 10u);
  EXPECT_EQ(out.per_request[0].queued_cycles, 10u);
  expect_logic_error([&] { eng.admit(0, 10); },
                     {"ServingEngine::admit", "running", "not waiting"});
  // A running request with operators left cannot finish.
  expect_logic_error([&] { eng.finish(0, 20); },
                     {"ServingEngine::finish", "request 0",
                      "still has operators left"});
  (void)eng.take_next(0);
  expect_logic_error([&] { eng.finish(0, 20); },
                     {"still has operators left"});
  (void)eng.take_next(0);
  eng.finish(0, 30);
  EXPECT_EQ(eng.state(0), ReqState::kFinished);
  EXPECT_EQ(out.per_request[0].finish_cycle, 30u);
  expect_logic_error([&] { eng.finish(0, 30); },
                     {"ServingEngine::finish", "finished", "not running"});
  EXPECT_FALSE(eng.all_finished());
}

TEST(ServingEngineEdges, HopTargetThrowsWithNothingPending) {
  const DecodePass pass = make_pass({0, 50});
  BatchStats out;
  ServingEngine eng = engine_of(pass, out);
  ASSERT_TRUE(eng.notice_arrivals(0));
  EXPECT_EQ(eng.hop_target(0, "idle machine"), 50u);
  ASSERT_TRUE(eng.notice_arrivals(50));
  expect_logic_error([&] { (void)eng.hop_target(50, "idle machine"); },
                     {"ServingEngine::hop_target", "idle machine",
                      "stream cycle 50", "no pending arrival or refetch",
                      "0 of 2 requests finished"});
  EXPECT_EQ(eng.next_landmark(50), kNeverCycle);
}

TEST(ServingEngineEdges, NextLandmarkIsTheNextArrival) {
  // Batch order is not arrival order: the engine sorts by arrival.
  const DecodePass pass = make_pass({700, 0, 300, 300});
  BatchStats out;
  ServingEngine eng = engine_of(pass, out);
  EXPECT_EQ(eng.next_landmark(0), 300u);  // arrival 0 is not after 0
  ASSERT_TRUE(eng.notice_arrivals(0));
  EXPECT_EQ(eng.state(1), ReqState::kWaiting);
  EXPECT_EQ(eng.next_landmark(0), 300u);
  EXPECT_EQ(eng.next_landmark(299), 300u);
  EXPECT_FALSE(eng.notice_arrivals(299));
  ASSERT_TRUE(eng.notice_arrivals(300));  // both tied arrivals at once
  EXPECT_EQ(eng.count(ReqState::kWaiting), 3u);
  EXPECT_EQ(eng.next_landmark(300), 700u);
  ASSERT_TRUE(eng.notice_arrivals(700));
  EXPECT_EQ(eng.count(ReqState::kPending), 0u);
  EXPECT_EQ(eng.next_landmark(700), kNeverCycle);
}

TEST(ServingEngineEdges, NextLandmarkIsTheNextRefetchLanding) {
  // Paged KV: 4 KiB blocks at 5 cycles each. Request 0's 32 KiB footprint
  // (64 tokens x 512 B, one layer) is 8 blocks, so a preempt + resume
  // holds it refetching for 40 cycles.
  DecodePassConfig pc;
  pc.serving.policy = AdmitPolicy::kFcfs;
  pc.serving.kv_budget_bytes = 1ull << 20;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  pc.serving.kv_block_bytes = 4096;
  pc.serving.refetch_cost = 5;
  const DecodePass pass = make_pass({0, 300}, pc);
  BatchStats out;
  ServingEngine eng = engine_of(pass, out);

  ASSERT_TRUE(eng.notice_arrivals(0));
  eng.admit(0, 0);
  ASSERT_EQ(eng.state(0), ReqState::kRunning);
  eng.preempt(0, 10);
  EXPECT_EQ(out.per_request[0].swapped_blocks, 8u);
  eng.resume(0, 20);
  ASSERT_EQ(eng.state(0), ReqState::kRefetching);
  EXPECT_EQ(out.per_request[0].refetch_cycles, 40u);

  // The landing (cycle 60) comes before the next arrival (cycle 300).
  EXPECT_EQ(eng.next_landmark(20), 60u);
  EXPECT_EQ(eng.next_landmark(59), 60u);
  EXPECT_EQ(eng.hop_target(20, "every live request refetching"), 60u);
  EXPECT_FALSE(eng.land_refetch(0, 59));
  EXPECT_EQ(eng.state(0), ReqState::kRefetching);
  // Once the landing is not after `after`, the arrival is next.
  EXPECT_EQ(eng.next_landmark(60), 300u);
  EXPECT_TRUE(eng.land_refetch(0, 60));
  EXPECT_EQ(eng.state(0), ReqState::kRunning);
  EXPECT_EQ(eng.next_landmark(20), 300u);
}

}  // namespace
}  // namespace llamcat
