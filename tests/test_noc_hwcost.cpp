// Unit tests: network (latency, credits, ordering) and the hardware-cost
// area model (paper §6.1 substitution).
#include <gtest/gtest.h>

#include "hwcost/area_model.hpp"
#include "noc/network.hpp"

namespace llamcat {
namespace {

NocConfig noc_cfg() {
  NocConfig cfg;
  cfg.req_latency = 5;
  cfg.resp_latency = 7;
  return cfg;
}

MemRequest mk(Addr a, CoreId core) {
  MemRequest r;
  r.line_addr = a;
  r.core = core;
  return r;
}

TEST(Network, RequestArrivesAfterLatency) {
  Network net(noc_cfg(), 2, 4);
  net.send_request(0, mk(0x40, 1), /*now=*/10);
  EXPECT_EQ(net.peek_request(0, 14), nullptr);
  const MemRequest* r = net.peek_request(0, 15);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->core, 1u);
  net.pop_request(0);
  EXPECT_TRUE(net.idle());
}

TEST(Network, FifoOrderPreserved) {
  Network net(noc_cfg(), 1, 8);
  for (Addr i = 0; i < 4; ++i) net.send_request(0, mk(i * 64, 0), i);
  for (Addr i = 0; i < 4; ++i) {
    const MemRequest* r = net.peek_request(0, 100);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->line_addr, i * 64);
    net.pop_request(0);
  }
}

TEST(Network, CreditsProvideBackpressure) {
  Network net(noc_cfg(), 2, 2);
  EXPECT_TRUE(net.can_send_request(0));
  net.send_request(0, mk(0, 0), 0);
  net.send_request(0, mk(64, 0), 0);
  EXPECT_FALSE(net.can_send_request(0));
  EXPECT_TRUE(net.can_send_request(1));  // per-slice credits
  net.pop_request(0);
  EXPECT_TRUE(net.can_send_request(0));
}

TEST(Network, ResponsesShareOneSendOrderedFifo) {
  Network net(noc_cfg(), 1, 4);
  net.send_response(MemResponse{0x80, 1, 7}, 0);
  net.send_response(MemResponse{0xC0, 0, 8}, 1);
  EXPECT_EQ(net.peek_response(6), nullptr);
  EXPECT_EQ(net.next_response_ready(), 7u);
  const MemResponse* r = net.peek_response(7);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->core, 1u);  // each response carries its core
  EXPECT_EQ(r->req_id, 7u);
  net.pop_response();
  EXPECT_EQ(net.peek_response(7), nullptr);  // the second matures at 8
  r = net.peek_response(8);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->core, 0u);
  net.pop_response();
  EXPECT_TRUE(net.idle());
}

TEST(Network, IngressMaskTracksNonEmptyRequestChannels) {
  Network net(noc_cfg(), 70, 4);  // more slices than one mask word
  EXPECT_EQ(net.ingress().next(0), DynBitset::npos);
  net.send_request(66, mk(0, 0), 0);
  net.send_request(66, mk(64, 0), 0);
  EXPECT_EQ(net.ingress().next(0), 66u);
  net.pop_request(66);
  EXPECT_TRUE(net.ingress().test(66));  // one request still in flight
  net.pop_request(66);
  EXPECT_EQ(net.ingress().next(0), DynBitset::npos);
}

// ------------------------------------------------------------- hwcost --

TEST(AreaModel, HitBufferNearPaperValue) {
  // Paper §6.1: hit buffer = 3088.61 um^2 at 15nm. The analytical model
  // should land within ~25% for the Table 5 configuration.
  const SimConfig cfg = SimConfig::table5();
  const AreaBreakdown hb = hit_buffer_area(cfg.arb);
  EXPECT_GT(hb.total_um2, 3088.61 * 0.75);
  EXPECT_LT(hb.total_um2, 3088.61 * 1.25);
}

TEST(AreaModel, ArbiterNearPaperValue) {
  // Paper §6.1: arbiter (incl. request queue) = 7312.93 um^2.
  const SimConfig cfg = SimConfig::table5();
  const AreaBreakdown arb =
      arbiter_area(cfg.llc, cfg.arb, cfg.core.num_cores);
  EXPECT_GT(arb.total_um2, 7312.93 * 0.6);
  EXPECT_LT(arb.total_um2, 7312.93 * 1.4);
}

TEST(AreaModel, ScalesWithStructureSizes) {
  const SimConfig cfg = SimConfig::table5();
  ArbConfig big = cfg.arb;
  big.hit_buffer_depth *= 2;
  EXPECT_GT(hit_buffer_area(big).total_um2,
            hit_buffer_area(cfg.arb).total_um2 * 1.8);
  LlcConfig big_q = cfg.llc;
  big_q.req_q_size *= 2;
  EXPECT_GT(arbiter_area(big_q, cfg.arb, 16).total_um2,
            arbiter_area(cfg.llc, cfg.arb, 16).total_um2);
}

TEST(AreaModel, BreakdownSumsToTotal) {
  const SimConfig cfg = SimConfig::table5();
  const AreaBreakdown arb =
      arbiter_area(cfg.llc, cfg.arb, cfg.core.num_cores);
  double sum = 0;
  for (const auto& item : arb.items) sum += item.um2;
  // total includes the overhead factor applied after summing.
  EXPECT_GT(arb.total_um2, sum);
  EXPECT_FALSE(arb.items.empty());
}

}  // namespace
}  // namespace llamcat
