// Ablation: paged KV eviction vs resident preemption (PR 4) under a tight
// KV budget.
//
// PR 4's serving layer preempts a running request but leaves its KV fully
// resident, so preemption relieves LLC/compute contention yet never
// *budget* pressure: a budget-blocked arrival waits for the long request's
// finish no matter how short it is. The paged KV model (--kv-evict=
// cold-blocks) swaps the preempted request's cold blocks out to a modeled
// DRAM/host tier - freeing budget bytes immediately, so blocked shorts
// admit mid-stream and co-run - and charges a refetch at resume.
//
// Workload: one long-context request decoding from cycle 0 plus staggered
// short arrivals, under a budget that fits the long request and ONE short.
// Resident preemption serializes the shorts (the preempted long request's
// KV pins the budget: at most one short is ever co-resident); cold-block
// eviction swaps the long request out and lets the shorts genuinely
// co-run. Variants:
//
//  - none:         unconditional admission (the PR 3 baseline),
//  - fcfs+pre:     budgeted FCFS + stage-boundary preemption, KV resident,
//  - srf+pre:      budgeted shortest-remaining-first + preemption, resident,
//  - srf+cold@2:   srf+pre with cold-block eviction over a fast host link
//                  (--refetch-cost=2: 32 B/cycle, ~63 GB/s - CXL/NVLink-ish),
//  - srf+cold@8:   the same over the default modeled link (8 B/cycle,
//                  ~16 GB/s - PCIe-gen4-ish).
//
// Expected qualitative result: against resident srf+pre, eviction over the
// fast link wins makespan AND P99 (co-running the shorts beats serializing
// them by more than the refetch costs), while the slow link gives the win
// back - the recompute-vs-reload tradeoff as a measurable policy axis,
// priced by the new swapped-blocks / refetch-bytes / refetch-cycles
// counters in every row. See bench/README.md and docs/metrics.md.
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

// Full llama3-70b head count, like ablation_admission: the paging policies
// matter exactly when one long-context KV stream saturates the scaled-down
// memory system.
ModelShape bench_model() { return ModelShape::llama3_70b(); }

struct PagingVariant {
  std::string name;
  AdmitPolicy policy;
  bool budgeted;
  bool preempt;
  KvEvictPolicy evict;
  std::uint64_t refetch_cost;  // 0 = modeled host-link default (8 B/cycle)
};

const std::vector<PagingVariant>& variants() {
  static const std::vector<PagingVariant> v = {
      {"none", AdmitPolicy::kNone, false, false, KvEvictPolicy::kNone, 0},
      {"fcfs+pre", AdmitPolicy::kFcfs, true, true, KvEvictPolicy::kNone, 0},
      {"srf+pre", AdmitPolicy::kShortestRemaining, true, true,
       KvEvictPolicy::kNone, 0},
      {"srf+cold@2", AdmitPolicy::kShortestRemaining, true, true,
       KvEvictPolicy::kColdBlocks, 2},
      {"srf+cold@8", AdmitPolicy::kShortestRemaining, true, true,
       KvEvictPolicy::kColdBlocks, 0},
  };
  return v;
}

BatchStats run_variant(const RequestBatch& batch, const SimConfig& cfg,
                       std::uint32_t layers, const PagingVariant& v,
                       std::uint64_t budget_bytes) {
  DecodePassConfig pc;
  pc.num_layers = layers;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  pc.serving.policy = v.policy;
  pc.serving.kv_budget_bytes = v.budgeted ? budget_bytes : 0;
  pc.serving.preempt = v.preempt;
  pc.serving.kv_evict = v.evict;
  pc.serving.refetch_cost = v.refetch_cost;
  return DecodePass(batch, pc, cfg).run();
}

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
  print_header("Ablation: paged KV eviction vs resident preemption",
               args.scale);

  const std::uint64_t long_seq = args.paper() ? 8192 : 1024;
  const std::uint64_t short_seq = 128;
  const std::uint32_t layers = 1;
  const std::uint32_t n_short = args.quick() ? 4 : 6;

  std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  if (args.quick()) policies = {{"dynmg+BMA", ThrottlePolicy::kDynMg,
                                 ArbPolicy::kBma}};

  // One long request from cycle 0, shorts every 10k cycles. The budget
  // fits the long request plus exactly one short: resident preemption can
  // never hold more than one short co-resident while the (preempted) long
  // request lives, so the shorts serialize; eviction frees the long
  // request's share and the shorts co-run.
  std::vector<RequestSpec> specs;
  specs.push_back({0, long_seq, 0, 1});
  for (std::uint32_t i = 0; i < n_short; ++i) {
    specs.push_back({i + 1, short_seq, 10'000ull * (i + 1), 1});
  }
  const RequestBatch batch(bench_model(), specs);
  const std::uint64_t budget =
      (batch.peak_kv_tokens(specs[0]) + batch.peak_kv_tokens(specs[1])) *
      batch.kv_bytes_per_token() * layers;

  TextTable t("tight budget (long + 1 short): 1 long (" +
              std::to_string(long_seq) + ") + " + std::to_string(n_short) +
              " short (" + std::to_string(short_seq) + ")");
  t.set_header({"policy", "variant", "makespan", "mean lat", "p50 lat",
                "p99 lat", "pre", "swap_blk", "refetch_b", "refetch_c",
                "admit order"});

  for (const NamedPolicy& p : policies) {
    // A 2 MiB LLC: the co-run-vs-serialize comparison needs the shorts'
    // combined working set to (mostly) fit the cache - on the 1 MiB machine
    // co-running thrashes so badly that nothing can beat serialization.
    const SimConfig cfg = contention_config(p.thr, p.arb, 2, 400'000'000);
    for (const PagingVariant& v : variants()) {
      const BatchStats s = run_variant(batch, cfg, layers, v, budget);
      t.add_row({p.name, v.name, std::to_string(s.makespan),
                 TextTable::num(mean_latency(s)),
                 std::to_string(s.latency_percentile(50.0)),
                 std::to_string(s.latency_percentile(99.0)),
                 std::to_string(s.total_preemptions()),
                 std::to_string(s.total_swapped_blocks()),
                 std::to_string(s.total_refetch_bytes()),
                 std::to_string(s.total_refetch_cycles()), admit_order(s)});
      json.begin_row()
          .field("bench", "ablation_paging")
          .field("policy", p.name)
          .field("variant", v.name)
          .field("kv_budget", v.budgeted ? budget : 0)
          .field("kv_evict", to_string(v.evict))
          .field("refetch_cost", v.refetch_cost)
          .field("makespan", s.makespan)
          .field("mean_latency", mean_latency(s))
          .field("p50_latency", s.latency_percentile(50.0))
          .field("p99_latency", s.latency_percentile(99.0))
          .field("queue_wait", s.total_queue_wait())
          .field("preemptions", s.total_preemptions())
          .field("swapped_blocks", s.total_swapped_blocks())
          .field("refetch_bytes", s.total_refetch_bytes())
          .field("refetch_cycles", s.total_refetch_cycles())
          .field("admit_order", admit_order(s));
      for (const scenario::RequestStats& r : s.per_request) {
        json.begin_row()
            .field("bench", "ablation_paging_requests")
            .field("policy", p.name)
            .field("variant", v.name)
            .field("request", static_cast<std::uint64_t>(r.id))
            .field("arrival", r.arrival_cycle)
            .field("admit_cycle", r.admit_cycle)
            .field("finish", r.finish_cycle)
            .field("latency", r.latency())
            .field("queue_wait", r.queued_cycles)
            .field("preemptions", static_cast<std::uint64_t>(r.preemptions))
            .field("swapped_blocks", r.swapped_blocks)
            .field("refetch_bytes", r.refetch_bytes)
            .field("refetch_cycles", r.refetch_cycles);
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nResident preemption (fcfs+pre / srf+pre) frees no budget: "
               "the preempted long\nrequest's KV pins its share, the shorts "
               "serialize one at a time, and P99 is the\nlast short's "
               "arrival-to-finish. Cold-block eviction swaps the long "
               "request out, the\nshorts co-run, and over a fast host link "
               "(srf+cold@2) that beats srf+pre on\nmakespan AND P99 - the "
               "refetch columns price exactly what the win costs. Over "
               "the\nslow default link (srf+cold@8) the refetch eats the "
               "co-run gain back on makespan\nwhile the short-request "
               "latencies keep their improvement: recompute-vs-reload "
               "is\na knob, not a universal win.\n";
  return json.write_if_requested() ? 0 : 1;
}
