// Ablation: co-scheduled multi-request contention vs the independent sum.
//
// The scenario layer can run a decode batch two ways: every operator in its
// own private System (independent - the optimistic sum PR 1 shipped) or
// fused per layer-stage wave into one shared System (coscheduled), where
// concurrent requests genuinely fight over cores, the shared LLC and DRAM.
// This bench measures the gap: the contention slowdown
// coscheduled/independent across batch sizes, and how much of it each
// throttle x arbitration pair claws back. Per-request attribution comes
// from the shared run itself (address-slot tagging), so the fairness
// spread across requests is visible too.
#include <algorithm>

#include "bench_util.hpp"
#include "scenario/scenario.hpp"

using namespace llamcat;
using namespace llamcat::bench;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::RequestBatch;

namespace {

ModelShape bench_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("Ablation: co-scheduled contention vs independent sum",
               args.scale);

  const std::uint64_t seq = args.paper() ? 2048 : 256;
  std::vector<std::uint32_t> batch_sizes = {1, 2, 4, 8};
  if (args.quick()) batch_sizes = {1, 4};

  const std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"unopt+BMA", ThrottlePolicy::kNone, ArbPolicy::kBma},
      {"dynmg+fcfs", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };

  TextTable t("contention slowdown (coscheduled / independent-sum cycles), " +
              std::to_string(seq) + "-token KV per request");
  t.set_header({"policy", "batch", "ind cycles", "cos cycles", "slowdown",
                "cos l2_hit", "req spread"});

  // Every (policy x batch) point is a pair of independent runs: fan the
  // points out with parallel_map and emit serially in sweep order.
  struct Point {
    const NamedPolicy* p;
    std::uint32_t n;
  };
  std::vector<Point> points;
  for (const NamedPolicy& p : policies) {
    for (const std::uint32_t n : batch_sizes) points.push_back({&p, n});
  }
  struct PointStats {
    BatchStats ind;
    BatchStats cos;
  };
  const auto stats = parallel_map(points.size(), 0, [&](std::size_t i) {
    const SimConfig cfg =
        contention_config(points[i].p->thr, points[i].p->arb);
    const RequestBatch batch =
        RequestBatch::uniform(bench_model(), points[i].n, seq);
    DecodePassConfig pc;
    pc.num_layers = 1;
    pc.include_gemv = false;
    PointStats ps;
    ps.ind = DecodePass(batch, pc, cfg).run();
    pc.mode = ExecutionMode::kCoScheduled;
    ps.cos = DecodePass(batch, pc, cfg).run();
    return ps;
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const NamedPolicy& p = *points[i].p;
    const std::uint32_t n = points[i].n;
    {
      const BatchStats& ind = stats[i].ind;
      const BatchStats& cos = stats[i].cos;

      // Fairness spread: max/min per-request cycles-in-flight of the
      // shared run (1.0 = perfectly even progress).
      Cycle lo = 0, hi = 0;
      for (const auto& r : cos.per_request) {
        const Cycle f = r.slice.cycles_in_flight;
        lo = lo == 0 ? f : std::min(lo, f);
        hi = std::max(hi, f);
      }
      const double spread =
          lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
      const double slowdown = static_cast<double>(cos.total.cycles) /
                              static_cast<double>(ind.total.cycles);
      t.add_row({p.name, std::to_string(n),
                 std::to_string(ind.total.cycles),
                 std::to_string(cos.total.cycles), TextTable::num(slowdown),
                 TextTable::num(cos.total.l2_hit_rate),
                 TextTable::num(spread)});
      json.begin_row()
          .field("bench", "ablation_coschedule")
          .field("policy", p.name)
          .field("batch", static_cast<std::uint64_t>(n))
          .field("seq", seq)
          .field("independent_cycles", ind.total.cycles)
          .field("coscheduled_cycles", cos.total.cycles)
          .field("slowdown", slowdown)
          .field("cos_l2_hit_rate", cos.total.l2_hit_rate)
          .field("request_spread", spread);
    }
  }
  t.print(std::cout);

  std::cout << "\nslowdown > 1: cross-request LLC/DRAM interference the "
               "independent sum hides.\nbatch 1 is the sanity anchor: both "
               "modes simulate the identical machine, so slowdown = 1.\n";
  return json.write_if_requested() ? 0 : 1;
}
