// Ablation: cross-request KV prefix reuse (--kv-share) under a tight budget.
//
// The paged-KV serving stack treats every request's KV as private, so N
// requests decoding from the same system prompt pin N copies of the prefix
// against --kv-budget. The shared block pool (scenario/kv_block_pool.hpp)
// charges each unique prefix block once: a request's effective admission
// footprint shrinks by its overlap with already-resident group members, and
// the same budget suddenly holds more co-residents.
//
// Workload: a burst of same-length requests, all decoding from one shared
// prefix (one --prefix-groups group), arriving staggered under a budget of
// 1.5x a single footprint. With sharing off the budget fits exactly ONE
// request at a time - the batch serializes and the machine runs far below
// capacity. With sharing on, the deduped footprints let 2 (at 50 % overlap)
// or 3+ (at 75 %) requests co-run in the same bytes. The sweep crosses
// prefix-overlap fraction {0, 25, 50, 75} % with sharing {off, on}:
//
//  - 0 %:  sharing on but nothing overlaps - pool bookkeeping only; the
//          timing must match sharing off exactly (the fuzzer pins this
//          neutrality property batch-wide);
//  - 25 %: dedup too small to fit a second request (1 + 0.75 > 1.5
//          footprints), so the batch still serializes - and because a
//          shared block dies with its last holder, serialized requests
//          never probe a live block: timing AND hit counters match sharing
//          off exactly. Reuse needs co-residency, not just overlap;
//  - 50 %: the first real win - pairs co-run, makespan AND P99 drop;
//  - 75 %: three-plus co-residents - more overlap frees more budget, but
//          the co-running working sets now contend for the LLC, so the
//          marginal win shrinks (or backslides): overlap is a knob with a
//          machine-dependent sweet spot, not a free lunch.
//
// Every row prices the reuse with the new pool counters: block hit rate,
// deduped (shared) bytes and the dedup ratio. See bench/README.md and
// docs/metrics.md.
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

ModelShape bench_model() { return ModelShape::llama3_70b(); }

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("Ablation: cross-request KV prefix reuse (--kv-share)",
               args.scale);

  const std::uint64_t seq = args.paper() ? 256 : 128;
  const std::uint32_t n_requests =
      args.paper() ? 12 : (args.quick() ? 6 : 8);
  const std::uint32_t layers = 1;
  const std::vector<std::uint64_t> overlaps =
      args.quick() ? std::vector<std::uint64_t>{0, 50, 75}
                   : std::vector<std::uint64_t>{0, 25, 50, 75};

  std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };
  if (args.quick()) policies = {{"dynmg+BMA", ThrottlePolicy::kDynMg,
                                 ArbPolicy::kBma}};

  TextTable t(std::to_string(n_requests) + " requests (seq " +
              std::to_string(seq) +
              ", one prefix group), budget = 1.5x one footprint");
  t.set_header({"policy", "overlap", "share", "makespan", "mean lat",
                "p99 lat", "queue_wait", "hit_rate", "shared_B", "dedup"});

  for (const NamedPolicy& p : policies) {
    // The ablation_paging machine (2 MiB LLC): a single request leaves
    // throughput on the table and a few co-running requests (mostly) fit
    // the cache - the regime where admission policy decides wall-clock, not
    // just queueing fairness.
    const SimConfig cfg = contention_config(p.thr, p.arb, 2, 400'000'000);
    for (const std::uint64_t overlap : overlaps) {
      for (const bool share : {false, true}) {
        const std::uint64_t prefix_tokens = seq * overlap / 100;
        std::vector<RequestSpec> specs;
        for (std::uint32_t i = 0; i < n_requests; ++i) {
          RequestSpec spec;
          spec.id = i;
          spec.seq_len = seq;
          spec.arrival_cycle = 4'000ull * i;
          spec.decode_steps = 1;
          // Prefix identity is declared regardless of the share switch -
          // the off rows prove the engine ignores it bit-for-bit.
          if (prefix_tokens != 0) {
            spec.prefix_group = 0;
            spec.prefix_tokens = prefix_tokens;
          }
          specs.push_back(spec);
        }
        const RequestBatch batch(bench_model(), specs);
        const std::uint64_t footprint =
            batch.peak_kv_bytes(specs[0], layers);
        const std::uint64_t budget = footprint * 3 / 2;

        DecodePassConfig pc;
        pc.num_layers = layers;
        pc.include_gemv = false;
        pc.mode = ExecutionMode::kContinuous;
        pc.serving.policy = AdmitPolicy::kFcfs;
        pc.serving.kv_budget_bytes = budget;
        pc.serving.kv_share = share;
        const BatchStats s = DecodePass(batch, pc, cfg).run();

        t.add_row({p.name, std::to_string(overlap) + "%",
                   share ? "on" : "off", std::to_string(s.makespan),
                   TextTable::num(mean_latency(s)),
                   std::to_string(s.latency_percentile(99.0)),
                   std::to_string(s.total_queue_wait()),
                   share ? TextTable::num(s.kv_hit_rate()) : "-",
                   share ? std::to_string(s.kv_shared_bytes) : "-",
                   share ? TextTable::num(s.kv_dedup_ratio()) : "-"});
        json.begin_row()
            .field("bench", "ablation_prefix_reuse")
            .field("policy", p.name)
            .field("overlap_pct", overlap)
            .field("kv_share", share ? "on" : "off")
            .field("kv_budget", budget)
            .field("footprint", footprint)
            .field("makespan", s.makespan)
            .field("mean_latency", mean_latency(s))
            .field("p50_latency", s.latency_percentile(50.0))
            .field("p99_latency", s.latency_percentile(99.0))
            .field("queue_wait", s.total_queue_wait())
            .field("kv_block_lookups", s.kv_block_lookups)
            .field("kv_block_hits", s.kv_block_hits)
            .field("kv_hit_rate", s.kv_hit_rate())
            .field("kv_shared_bytes", s.kv_shared_bytes)
            .field("kv_charged_bytes", s.kv_charged_bytes)
            .field("kv_dedup_ratio", s.kv_dedup_ratio());
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nAt a 1.5-footprint budget the share-off rows serialize "
               "(one request resident at a\ntime, the machine far below "
               "capacity); prefix reuse turns overlap into\nco-residency - "
               "at 50 % the deduped footprints fit pairs and makespan AND "
               "P99 drop\nsharply, at 75 % three-plus co-run and the LLC "
               "starts pushing back. 0 % and 25 %\nmatch the off rows to "
               "the byte - 25 % even shows a zero hit rate, because a "
               "shared\nblock dies with its last holder and serialized "
               "requests never probe a live one:\nreuse needs co-residency, "
               "not just overlap, and costs nothing when it never\n"
               "materializes.\n";
  return json.write_if_requested() ? 0 : 1;
}
