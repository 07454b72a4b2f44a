// Ablation: continuous batching (streaming System) vs the per-wave barrier.
//
// kCoScheduled drains the whole machine between layer-stage waves, so every
// request - however short - waits for the batch's longest member at every
// stage. kContinuous feeds one long-lived System from a dynamic trace
// source: a request's next operator starts the moment its own previous one
// completes. On skewed batches (one long-context request among short ones)
// that difference is the makespan gap this bench measures, per policy pair,
// along with the short requests' latency win and the tail (long-request)
// latency cost of sharing the machine with streaming neighbors.
//
// Arrival staggering is also exercised: a mid-pass admission has no barrier
// analogue at all, so only the continuous rows report it.
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
using scenario::RequestSpec;

namespace {

ModelShape bench_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

/// Mean finish-minus-arrival latency of the short requests (ids > 0).
double short_latency(const BatchStats& s) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const scenario::RequestStats& r : s.per_request) {
    if (r.id == 0) continue;
    sum += static_cast<double>(r.stats.cycles);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  JsonRows json;
  const BenchOptions args = parse_args(argc, argv, &json);
  print_header("Ablation: continuous batching vs per-wave barrier", args.scale);

  // Skewed batch: one long-context request plus short ones. Under the
  // barrier the short requests pay the long request's wave time at every
  // stage; under streaming they run ahead and retire early.
  const std::uint64_t long_seq = args.paper() ? 8192 : 1024;
  const std::uint64_t short_seq = args.paper() ? 512 : 128;
  const std::uint32_t layers = args.quick() ? 1 : 2;
  std::vector<std::uint32_t> batch_sizes = {2, 4, 8};
  if (args.quick()) batch_sizes = {4};

  const std::vector<NamedPolicy> policies = {
      {"unopt+fcfs", ThrottlePolicy::kNone, ArbPolicy::kFcfs},
      {"unopt+BMA", ThrottlePolicy::kNone, ArbPolicy::kBma},
      {"dynmg+fcfs", ThrottlePolicy::kDynMg, ArbPolicy::kFcfs},
      {"dynmg+BMA", ThrottlePolicy::kDynMg, ArbPolicy::kBma},
  };

  TextTable t("makespan: barrier (coscheduled waves) vs streaming "
              "(continuous), 1 long (" +
              std::to_string(long_seq) + ") + N-1 short (" +
              std::to_string(short_seq) + ") requests");
  t.set_header({"policy", "batch", "barrier", "stream", "speedup",
                "short lat x", "tail lat x"});

  for (const NamedPolicy& p : policies) {
    for (const std::uint32_t n : batch_sizes) {
      const SimConfig cfg = contention_config(p.thr, p.arb);
      std::vector<std::uint64_t> seqs(n, short_seq);
      seqs[0] = long_seq;
      const RequestBatch batch = RequestBatch::with_seq_lens(bench_model(),
                                                             seqs);
      DecodePassConfig pc;
      pc.num_layers = layers;
      pc.include_gemv = false;
      pc.mode = ExecutionMode::kCoScheduled;
      const BatchStats barrier = DecodePass(batch, pc, cfg).run();
      pc.mode = ExecutionMode::kContinuous;
      const BatchStats stream = DecodePass(batch, pc, cfg).run();

      const double speedup = static_cast<double>(barrier.makespan) /
                             static_cast<double>(stream.makespan);
      // Latency ratios stream/barrier: short requests should shrink
      // (no longer waiting out the long member's waves); the long tail
      // request pays for the company it now keeps all pass long.
      const double short_ratio = short_latency(stream) /
                                 short_latency(barrier);
      const double tail_ratio =
          static_cast<double>(stream.per_request[0].stats.cycles) /
          static_cast<double>(barrier.per_request[0].stats.cycles);
      t.add_row({p.name, std::to_string(n),
                 std::to_string(barrier.makespan),
                 std::to_string(stream.makespan), TextTable::num(speedup),
                 TextTable::num(short_ratio), TextTable::num(tail_ratio)});
      json.begin_row()
          .field("bench", "ablation_continuous")
          .field("policy", p.name)
          .field("batch", static_cast<std::uint64_t>(n))
          .field("long_seq", long_seq)
          .field("short_seq", short_seq)
          .field("barrier_makespan", barrier.makespan)
          .field("stream_makespan", stream.makespan)
          .field("speedup", speedup)
          .field("short_latency_ratio", short_ratio)
          .field("tail_latency_ratio", tail_ratio);
    }
  }
  t.print(std::cout);

  // Mid-pass admission: the barrier cannot express it at all. Report the
  // streaming numbers for a staggered-arrival version of the batch.
  TextTable a("staggered arrivals (continuous only): short requests arrive "
              "mid-decode of the long one");
  a.set_header({"policy", "request", "arrival", "admit", "finish",
                "latency"});
  for (const NamedPolicy& p : policies) {
    const SimConfig cfg = contention_config(p.thr, p.arb);
    std::vector<RequestSpec> specs;
    specs.push_back({0, long_seq, 0, 1});
    specs.push_back({1, short_seq, 20'000, 1});
    specs.push_back({2, short_seq, 60'000, 1});
    const RequestBatch batch(bench_model(), specs);
    DecodePassConfig pc;
    pc.num_layers = layers;
    pc.include_gemv = false;
    pc.mode = ExecutionMode::kContinuous;
    const BatchStats s = DecodePass(batch, pc, cfg).run();
    for (const scenario::RequestStats& r : s.per_request) {
      a.add_row({p.name, std::to_string(r.id),
                 std::to_string(r.arrival_cycle),
                 std::to_string(r.admit_cycle),
                 std::to_string(r.finish_cycle),
                 std::to_string(r.latency())});
      json.begin_row()
          .field("bench", "ablation_continuous_arrivals")
          .field("policy", p.name)
          .field("request", static_cast<std::uint64_t>(r.id))
          .field("arrival", r.arrival_cycle)
          .field("admit", r.admit_cycle)
          .field("finish", r.finish_cycle)
          .field("latency", r.latency());
    }
  }
  a.print(std::cout);

  std::cout << "\nspeedup > 1: cycles the barrier spends draining the "
               "machine while short requests\nwait on the batch's longest "
               "member - the paper's contention policies now get\nexercised "
               "under the admission regime real schedulers run.\n";
  return json.write_if_requested() ? 0 : 1;
}
