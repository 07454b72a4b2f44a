// Ablation: open-loop saturation sweep - how much load can the chip
// sustain before the serving knobs stop saving the tail?
//
// Every other ablation replays a fixed, hand-picked batch. This one drives
// the seeded traffic generator (scenario/traffic.hpp) through the sweep
// driver (scenario/sweep.hpp): the same Poisson workload is replayed at a
// ladder of offered loads (descending mean inter-arrival gap), per serving
// stack, producing the classic saturation curves -
//
//  - throughput vs offered load: rises with load, then plateaus at the
//    machine's service capacity (the knee);
//  - P99 TTFT / end-to-end latency vs offered load: flat while the machine
//    keeps up, then explodes past the knee as the queue builds;
//  - SLO goodput (tokens/s of requests whose TTFT met the SLO): tracks
//    throughput below the knee, collapses above it;
//  - max-sustainable load per stack: the densest arrival rate whose P99
//    TTFT still meets the SLO.
//
// The point of charting whole curves instead of one load: the policy
// ordering FLIPS across the knee. Below it, unconditional admission (none)
// matches or beats the budgeted stacks - there is nothing to queue, and a
// budget can only delay. Past it, the budgeted + preempting stack keeps
// admitting short requests through the backlog, so its SLO goodput holds
// while `none` lets every co-resident stream contend at once and drags the
// tail down with the makespan.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/sweep.hpp"

using namespace llamcat;
using namespace llamcat::bench;
using scenario::AdmitPolicy;
using scenario::DecodePassConfig;
using scenario::ExecutionMode;
using scenario::RequestBatch;
using scenario::SweepConfig;
using scenario::SweepPoint;
using scenario::TrafficConfig;
using scenario::TrafficDist;
using scenario::TrafficProcess;

namespace {

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
      {"srf+pre", AdmitPolicy::kShortestRemaining, true, true},
  };
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("Ablation: open-loop saturation sweep (traffic -> knee)",
               args.scale);

  const std::uint32_t layers = args.quick() ? 1 : 2;
  const std::uint32_t n_requests = args.quick() ? 6 : 12;

  // The workload shape is fixed across the whole bench: only the arrival
  // clock (the gap ladder) and the serving stack vary, so any two rows
  // differ by exactly one knob.
  TrafficConfig traffic;
  traffic.num_requests = n_requests;
  traffic.seed = 7;
  traffic.process = TrafficProcess::kPoisson;
  traffic.seq_dist = TrafficDist::kLognormal;
  traffic.seq_min = args.quick() ? 128 : 256;
  traffic.seq_max = args.quick() ? 512 : 1024;
  traffic.seq_sigma = 0.6;
  traffic.steps_min = 1;
  traffic.steps_max = 2;

  // Offered-load axis, descending gap = rising load. A request's service
  // time on this scaled-down machine is a few million cycles, so the top of
  // the ladder (8M) leaves the machine idle between arrivals; the bottom
  // lands the whole batch near-simultaneously - well past the knee.
  std::vector<Cycle> gaps = {8'000'000, 2'000'000, 500'000, 125'000, 30'000};
  if (args.quick()) gaps = {8'000'000, 500'000, 30'000};

  std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  if (args.quick()) {
    policies = {{"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma}};
  }

  // Budget and SLO derive from the workload so --quick stays proportioned:
  // the budget fits roughly a third of the batch's peak KV at once, and the
  // SLO is a mid-ladder gap (loose when the machine idles, hopeless when
  // the whole batch lands at once).
  const RequestBatch probe(bench_model(),
                           scenario::generate_traffic([&] {
                             TrafficConfig t = traffic;
                             t.mean_gap = gaps.front();
                             return t;
                           }()));
  const std::uint64_t budget = probe.total_peak_kv_bytes(layers) / 3;
  const Cycle slo_ttft = 100'000;

  SweepConfig sweep;
  sweep.traffic = traffic;
  sweep.gaps = gaps;
  sweep.slo_ttft_cycles = slo_ttft;

  struct Curve {
    const NamedPolicy* p;
    const ServingVariant* v;
    std::vector<SweepPoint> points;
  };
  std::vector<Curve> curves;
  for (const NamedPolicy& p : policies) {
    for (const ServingVariant& v : variants()) curves.push_back({&p, &v, {}});
  }
  // Each curve runs its ladder serially (the points of one curve share
  // nothing); the curves fan out with parallel_map. Flattening to per-point
  // tasks would also work - curves are few and similar-sized, so this
  // keeps the code flat without losing wall-clock.
  const auto all_points =
      parallel_map(curves.size(), 0, [&](std::size_t i) {
        DecodePassConfig pc;
        pc.num_layers = layers;
        pc.include_gemv = false;
        pc.mode = ExecutionMode::kContinuous;
        pc.serving.policy = curves[i].v->policy;
        pc.serving.kv_budget_bytes = curves[i].v->budgeted ? budget : 0;
        pc.serving.preempt = curves[i].v->preempt;
        return run_load_sweep(
            bench_model(),
            contention_config(curves[i].p->thr, curves[i].p->arb, 1,
                              500'000'000),
            pc, sweep);
      });
  for (std::size_t i = 0; i < curves.size(); ++i) {
    curves[i].points = all_points[i];
  }

  TextTable t("saturation curves: " + std::to_string(n_requests) +
              " Poisson requests, seq LN[" + std::to_string(traffic.seq_min) +
              "," + std::to_string(traffic.seq_max) + "], KV budget = peak/3, "
              "TTFT SLO = " + std::to_string(slo_ttft));
  t.set_header({"policy", "admit", "gap", "offered q/s", "tput t/s",
                "goodput t/s", "p99 ttft", "p99 tbt", "p99 lat", "slo ok",
                "pre"});
  for (const Curve& c : curves) {
    for (const SweepPoint& pt : c.points) {
      t.add_row({c.p->name, c.v->name, std::to_string(pt.mean_gap),
                 TextTable::num(pt.offered_qps),
                 TextTable::num(pt.throughput_tps),
                 TextTable::num(pt.goodput_tps), std::to_string(pt.p99_ttft),
                 std::to_string(pt.p99_tbt), std::to_string(pt.p99_latency),
                 std::to_string(pt.slo.attained) + "/" +
                     std::to_string(pt.slo.finished),
                 std::to_string(pt.preemptions)});
      json.begin_row()
          .field("bench", "ablation_saturation")
          .field("policy", c.p->name)
          .field("admit", c.v->name)
          .field("kv_budget", c.v->budgeted ? budget : 0)
          .field("mean_gap", pt.mean_gap)
          .field("offered_qps", pt.offered_qps)
          .field("throughput_tps", pt.throughput_tps)
          .field("goodput_tps", pt.goodput_tps)
          .field("makespan", pt.makespan)
          .field("p50_latency", pt.p50_latency)
          .field("p99_latency", pt.p99_latency)
          .field("p50_ttft", pt.p50_ttft)
          .field("p99_ttft", pt.p99_ttft)
          .field("p50_tbt", pt.p50_tbt)
          .field("p99_tbt", pt.p99_tbt)
          .field("slo_attained", pt.slo.attained)
          .field("slo_violated", pt.slo.violated)
          .field("preemptions", pt.preemptions)
          .field("queue_wait", pt.queue_wait);
    }
    const std::size_t best =
        scenario::max_sustainable_index(c.points, slo_ttft);
    json.begin_row()
        .field("bench", "ablation_saturation_sustainable")
        .field("policy", c.p->name)
        .field("admit", c.v->name)
        .field("max_sustainable_qps",
               best < c.points.size() ? c.points[best].offered_qps : 0.0)
        .field("max_sustainable_gap",
               best < c.points.size() ? c.points[best].mean_gap : 0);
  }
  t.print(std::cout);

  std::cout << "\nReading the curves: throughput climbs with offered load "
               "and flattens at the service\ncapacity (the knee); past it "
               "P99 TTFT and latency explode as the queue builds.\nBelow "
               "the knee `none` matches the budgeted stacks (nothing to "
               "queue); past it the\nbudgeted+preempting stack holds its "
               "SLO goodput while unconditional admission\nlets every "
               "stream contend at once - the ordering flip is the reason "
               "to chart\nwhole curves instead of benchmarking one load.\n";
  return json.write_if_requested() ? 0 : 1;
}
