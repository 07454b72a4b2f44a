// Ablation: serving-policy layer - KV-pressure-aware admission + preemption.
//
// The raw continuous engine (--admit-policy=none) admits every arrival
// unconditionally, so a staggered batch's aggregate KV working set can
// exceed any machine budget and every co-resident stream contends at once.
// This bench compares the serving policies on one staggered, skewed-arrival
// batch (one long-context request decoding from cycle 0, short requests
// landing while it runs):
//
//  - none:        unconditional admission (the PR 3 baseline),
//  - fcfs:        KV-budgeted queue drained in arrival order,
//  - srf:         KV-budgeted queue drained shortest-remaining-first,
//  - fcfs+pre / srf+pre: the same with stage-boundary preemption (a running
//    request yields to a much-shorter co-runner; its KV stays resident).
//
// Reported per variant: makespan, mean/P50/P99 latency, total queue wait,
// preemption count and the admission order - the JSON rows carry all of it
// so CI archives (a) how a finite budget changes the admission schedule vs
// `none` and (b) the P99/makespan effect of SRF and preemption vs FCFS.
//
// A second table isolates the queue discipline in the serialization regime
// (budget = one request at a time): SRF jumps short requests past a long
// head-of-line request, trading the single long job's tail for the batch's
// median - the classic SJF tradeoff, now measurable per cache policy.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/scenario.hpp"

using namespace llamcat;
using namespace llamcat::bench;
using scenario::AdmitPolicy;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::RequestBatch;
using scenario::RequestSpec;

namespace {

// Unlike the co-schedule/continuous ablations, this bench keeps the full
// llama3-70b head count: the serving policies matter exactly when one
// long-context KV stream can saturate the scaled-down memory system (the
// contention-dominated regime), and the scaled-down model shape is too
// light to reach it.
ModelShape bench_model() { return ModelShape::llama3_70b(); }

struct ServingVariant {
  std::string name;
  AdmitPolicy policy;
  bool budgeted;
  bool preempt;
};

const std::vector<ServingVariant>& variants() {
  static const std::vector<ServingVariant> v = {
      {"none", AdmitPolicy::kNone, false, false},
      {"fcfs", AdmitPolicy::kFcfs, true, false},
      {"srf", AdmitPolicy::kShortestRemaining, true, false},
      {"fcfs+pre", AdmitPolicy::kFcfs, true, true},
      {"srf+pre", AdmitPolicy::kShortestRemaining, true, true},
  };
  return v;
}

BatchStats run_variant(const RequestBatch& batch, const SimConfig& cfg,
                       std::uint32_t layers, const ServingVariant& v,
                       std::uint64_t budget_bytes) {
  DecodePassConfig pc;
  pc.num_layers = layers;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  pc.serving.policy = v.policy;
  pc.serving.kv_budget_bytes = v.budgeted ? budget_bytes : 0;
  pc.serving.preempt = v.preempt;
  return DecodePass(batch, pc, cfg).run();
}

/// Request ids sorted by admission time: "0>2>1" means request 1 was held
/// back past request 2 - the budget visibly reordered the schedule.
std::string admit_order(const BatchStats& s) {
  std::vector<const scenario::RequestStats*> rs;
  for (const scenario::RequestStats& r : s.per_request) rs.push_back(&r);
  std::stable_sort(rs.begin(), rs.end(),
                   [](const scenario::RequestStats* a,
                      const scenario::RequestStats* b) {
                     return a->admit_cycle < b->admit_cycle;
                   });
  std::string out;
  for (const scenario::RequestStats* r : rs) {
    if (!out.empty()) out += '>';
    out += std::to_string(r->id);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("Ablation: KV-pressure-aware admission + preemption",
               args.scale);

  const std::uint64_t long_seq = args.paper() ? 8192 : 1024;
  const std::uint64_t short_seq = args.paper() ? 512 : 128;
  const std::uint32_t layers = args.quick() ? 1 : 2;
  const std::uint32_t n_short = args.quick() ? 4 : 6;

  std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  if (args.quick()) policies = {{"dynmg+BMA", ThrottlePolicy::kDynMg,
                                 ArbPolicy::kBma}};

  // Scenario A: one long request decoding from cycle 0, shorts arriving
  // every 10k cycles. The budget fits the long request's KV plus two
  // shorts, so unconditional admission oversubscribes it by design.
  std::vector<RequestSpec> specs;
  specs.push_back({0, long_seq, 0, 1});
  for (std::uint32_t i = 0; i < n_short; ++i) {
    specs.push_back({i + 1, short_seq, 10'000ull * (i + 1), 1});
  }
  const RequestBatch batch(bench_model(), specs);
  const std::uint64_t budget =
      (batch.peak_kv_tokens(specs[0]) + 2 * batch.peak_kv_tokens(specs[1])) *
      batch.kv_bytes_per_token() * layers;

  TextTable t("staggered skewed arrivals: 1 long (" +
              std::to_string(long_seq) + ") + " + std::to_string(n_short) +
              " short (" + std::to_string(short_seq) +
              "), KV budget = long + 2 shorts");
  t.set_header({"policy", "admit", "makespan", "mean lat", "p50 lat",
                "p99 lat", "wait", "pre", "admit order"});

  // All (policy x variant) points are independent runs: fan them out
  // with parallel_map, then emit tables/JSON serially in sweep order.
  struct Point {
    const NamedPolicy* p;
    const ServingVariant* v;
  };
  std::vector<Point> points;
  for (const NamedPolicy& p : policies) {
    for (const ServingVariant& v : variants()) points.push_back({&p, &v});
  }
  const auto stats = parallel_map(points.size(), 0, [&](std::size_t i) {
    return run_variant(batch, contention_config(points[i].p->thr,
                                                points[i].p->arb),
                       layers, *points[i].v, budget);
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const NamedPolicy& p = *points[i].p;
    const ServingVariant& v = *points[i].v;
    {
      const BatchStats& s = stats[i];
      t.add_row({p.name, v.name, std::to_string(s.makespan),
                 TextTable::num(mean_latency(s)),
                 std::to_string(s.latency_percentile(50.0)),
                 std::to_string(s.latency_percentile(99.0)),
                 std::to_string(s.total_queue_wait()),
                 std::to_string(s.total_preemptions()), admit_order(s)});
      json.begin_row()
          .field("bench", "ablation_admission")
          .field("policy", p.name)
          .field("admit", v.name)
          .field("kv_budget", v.budgeted ? budget : 0)
          .field("makespan", s.makespan)
          .field("mean_latency", mean_latency(s))
          .field("p50_latency", s.latency_percentile(50.0))
          .field("p99_latency", s.latency_percentile(99.0))
          .field("queue_wait", s.total_queue_wait())
          .field("preemptions", s.total_preemptions())
          .field("admit_order", admit_order(s));
      for (const scenario::RequestStats& r : s.per_request) {
        json.begin_row()
            .field("bench", "ablation_admission_requests")
            .field("policy", p.name)
            .field("admit", v.name)
            .field("request", static_cast<std::uint64_t>(r.id))
            .field("arrival", r.arrival_cycle)
            .field("admit_cycle", r.admit_cycle)
            .field("finish", r.finish_cycle)
            .field("latency", r.latency())
            .field("queue_wait", r.queued_cycles)
            .field("preemptions",
                   static_cast<std::uint64_t>(r.preemptions));
      }
    }
  }
  t.print(std::cout);

  // Scenario B: the serialization regime - the budget admits exactly one
  // request at a time, so the admission order IS the schedule. Every pair
  // of requests sums past the 512-token budget (the smallest two are
  // 320 + 384 > 512), so co-residency is impossible: FCFS drains by
  // arrival, SRF drains shortest-first, and the latency spread between the
  // two is pure queue discipline with zero contention mixed in.
  const std::uint64_t unit = args.paper() ? 8 : 1;
  const RequestBatch serial(bench_model(), {{0, 512 * unit, 0, 1},
                                            {1, 448 * unit, 5'000, 1},
                                            {2, 384 * unit, 10'000, 1},
                                            {3, 320 * unit, 15'000, 1}});
  const std::uint64_t serial_budget =
      serial.peak_kv_tokens(serial.requests()[0]) *
      serial.kv_bytes_per_token() * layers;

  TextTable q("serialization regime (budget = 1 request at a time): the "
              "discipline is the schedule");
  q.set_header({"policy", "admit", "makespan", "mean lat", "p50 lat",
                "p99 lat", "admit order"});
  std::vector<Point> serial_points;
  for (const NamedPolicy& p : policies) {
    for (const ServingVariant& v : variants()) {
      // One-at-a-time residency means nothing ever co-runs, so the preempt
      // variants would duplicate the fcfs/srf rows exactly.
      if (v.preempt) continue;
      serial_points.push_back({&p, &v});
    }
  }
  const auto serial_stats =
      parallel_map(serial_points.size(), 0, [&](std::size_t i) {
        return run_variant(serial,
                           contention_config(serial_points[i].p->thr,
                                             serial_points[i].p->arb),
                           layers, *serial_points[i].v, serial_budget);
      });
  for (std::size_t i = 0; i < serial_points.size(); ++i) {
    const NamedPolicy& p = *serial_points[i].p;
    const ServingVariant& v = *serial_points[i].v;
    {
      const BatchStats& s = serial_stats[i];
      q.add_row({p.name, v.name, std::to_string(s.makespan),
                 TextTable::num(mean_latency(s)),
                 std::to_string(s.latency_percentile(50.0)),
                 std::to_string(s.latency_percentile(99.0)),
                 admit_order(s)});
      json.begin_row()
          .field("bench", "ablation_admission_serial")
          .field("policy", p.name)
          .field("admit", v.name)
          .field("kv_budget", v.budgeted ? serial_budget : 0)
          .field("makespan", s.makespan)
          .field("mean_latency", mean_latency(s))
          .field("p50_latency", s.latency_percentile(50.0))
          .field("p99_latency", s.latency_percentile(99.0))
          .field("admit_order", admit_order(s));
    }
  }
  q.print(std::cout);

  std::cout << "\nA finite KV budget reorders admissions (queue wait > 0, "
               "admit order != arrival order\nunder srf) and preemption "
               "bounds the short requests' latency: the long request\n"
               "yields its stage boundaries while shorts stream through, "
               "cutting P50 and - because\nserialized streams beat "
               "contended ones on this machine - P99 and makespan too.\n";
  return json.write_if_requested() ? 0 : 1;
}
