// Scenario layer: composes the single-operator simulator into end-to-end
// decode workloads. A RequestBatch holds concurrent decode requests (each
// with its own sequence length); a DecodePass expands the batch into the
// per-layer Logit -> Attend -> GEMV operator chain of one decode step and
// aggregates SimStats into per-request and per-batch totals with
// tokens-per-cycle throughput.
//
// Three execution modes:
//  - kIndependent: every operator runs in its own private System (the
//    thread-pool harness); per-request stats are sums of isolated runs.
//    Requests never contend - an optimistic upper bound.
//  - kCoScheduled: per layer-stage wave, the batch's operators are fused
//    into one CompositeTbSource and run through a single shared System, so
//    co-resident requests genuinely contend for cores, the shared LLC and
//    DRAM. Per-request stats come from address-slot attribution of that
//    shared run (RequestSlice). Every wave is a barrier: a short request
//    waits for the batch's longest member before its next stage starts.
//  - kContinuous: one long-lived streaming System per decode pass, fed by a
//    DynamicTbSource. Each request's next operator is enqueued the moment
//    its own previous operator's thread blocks complete (while other
//    requests are still mid-flight), and new requests are admitted mid-pass
//    at their arrival_cycle - vLLM-style iteration-level batching. A
//    request alone in the machine hands off stage-to-stage at a full-drain
//    boundary instead (the engine recycles the System there, identical to
//    a one-request wave), which makes a zero-arrival batch of one
//    reproduce kCoScheduled exactly while batches with skewed lengths
//    stream past the barrier. Stats report true per-request latency
//    (finish - arrival) plus the batch makespan.
//
// On top of kContinuous sits the serving-policy layer (serving.hpp:
// KV-budgeted admission, stage-boundary preemption) and the KV block pool
// (kv_block_pool.hpp: cold-block eviction to a modeled host tier, refetch
// at resume, prefix sharing). docs/architecture.md maps the whole stack, walks one request's
// life-cycle through it, and has the "add a new policy / stat / CLI flag"
// contributor recipes; docs/metrics.md defines every stat reported here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "scenario/kv_block_pool.hpp"
#include "scenario/serving.hpp"
#include "sim/experiment.hpp"
#include "sim/sim_stats.hpp"
#include "trace/composite.hpp"
#include "trace/operator.hpp"

namespace llamcat::scenario {

/// One in-flight decode request: a KV cache of `seq_len` tokens being
/// extended by `decode_steps` tokens this pass. `arrival_cycle` is when the
/// request enters the serving queue (kContinuous admits it mid-pass at that
/// cycle; the barrier modes require 0 - they have no notion of time before
/// the batch starts).
struct RequestSpec {
  std::uint32_t id = 0;
  std::uint64_t seq_len = 4096;
  Cycle arrival_cycle = 0;
  /// Tokens decoded this pass; step s runs the layer chain against a KV
  /// cache grown to seq_len + s.
  std::uint32_t decode_steps = 1;
  /// Prefix identity for cross-request KV reuse (kv_block_pool.hpp):
  /// requests in the same group share the KV blocks of their common prefix.
  /// kNoPrefixGroup (the default) keeps the KV fully private. Honored only
  /// when ServingConfig::kv_share is on - with sharing off these fields are
  /// ignored and the run is byte-identical to a batch without them (the
  /// ablation control).
  std::uint32_t prefix_group = kNoPrefixGroup;
  /// Length of the shared prefix in tokens (1 <= prefix_tokens <= seq_len
  /// when a group is set; must be 0 otherwise). Members of one group may
  /// declare different lengths - they share the whole blocks of the common
  /// leading range.
  std::uint64_t prefix_tokens = 0;
};

/// A set of concurrent decode requests sharing one model shape.
class RequestBatch {
 public:
  RequestBatch(ModelShape model, std::vector<RequestSpec> requests);

  /// `n` requests, ids 0..n-1, all at the same sequence length.
  static RequestBatch uniform(const ModelShape& model, std::uint32_t n,
                              std::uint64_t seq_len);
  /// One request per entry of `seq_lens`, ids in order.
  static RequestBatch with_seq_lens(const ModelShape& model,
                                    const std::vector<std::uint64_t>& seq_lens);

  [[nodiscard]] const ModelShape& model() const { return model_; }
  [[nodiscard]] const std::vector<RequestSpec>& requests() const {
    return requests_;
  }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }

  // -- step-aware KV footprint ----------------------------------------------
  // A request at decode step s occupies seq_len + s tokens, rounded up to a
  // cache-line granule of elements (block-granular KV allocation, matching
  // the operator mapper's line-level tiling). Footprint-based budgets must
  // use the PEAK (last step's) occupancy, not the start-of-pass seq_len -
  // summing bare seq_lens undercounts every multi-step batch.

  /// KV tokens the request's step-`s` operators run against (s = 0 is the
  /// start-of-pass seq_len; later steps are granule-rounded).
  [[nodiscard]] std::uint64_t kv_tokens_at_step(const RequestSpec& r,
                                                std::uint32_t step) const;
  /// Peak KV occupancy of one request across its decode steps, in tokens.
  [[nodiscard]] std::uint64_t peak_kv_tokens(const RequestSpec& r) const;
  /// Sum of per-request peak KV occupancies (the batch's peak KV footprint
  /// in tokens, per layer).
  [[nodiscard]] std::uint64_t total_peak_kv_tokens() const;
  /// KV bytes one resident token pins per decode layer: H * D * dtype (the
  /// simulated K and V share one address range, so one token is one
  /// line-set per layer).
  [[nodiscard]] std::uint64_t kv_bytes_per_token() const;
  /// Peak KV bytes one request pins across `num_layers` decode layers.
  [[nodiscard]] std::uint64_t peak_kv_bytes(const RequestSpec& r,
                                            std::uint32_t num_layers) const;
  /// Bytes of one request's shared-prefix region across `num_layers` layers
  /// (0 for a request with no prefix group). Always <= peak_kv_bytes.
  [[nodiscard]] std::uint64_t prefix_kv_bytes(const RequestSpec& r,
                                              std::uint32_t num_layers) const;
  /// Peak KV bytes the whole batch pins across `num_layers` layers.
  [[nodiscard]] std::uint64_t total_peak_kv_bytes(
      std::uint32_t num_layers) const;

 private:
  ModelShape model_;
  std::vector<RequestSpec> requests_;
};

/// The operator stages of one decode layer. kGemv models the memory-bound
/// projection/FFN tile that follows attention (no GQA sharing, paper
/// §6.3.3); kLogit/kAttend are the paper's attention operators.
enum class StageKind : std::uint8_t { kLogit, kAttend, kGemv };

NameTable<StageKind> enum_names(StageKind);

/// How the pass executes the batch (see the header comment); defined in
/// common/config.hpp, re-exported here as the scenario vocabulary.
using llamcat::ExecutionMode;

struct DecodePassConfig {
  std::uint32_t num_layers = 2;
  /// Include the per-layer GEMV stage after attention.
  bool include_gemv = true;
  /// GEMV weight-tile shape; 0 = derive both from the model width
  /// E = H * G * D (a square E x E projection tile).
  std::uint64_t gemv_rows = 0;
  std::uint32_t gemv_cols = 0;
  ExecutionMode mode = ExecutionMode::kIndependent;
  /// kCoScheduled: how each wave's CompositeTbSource interleaves the
  /// requests' thread blocks.
  FuseOrder interleave = FuseOrder::kRoundRobin;
  /// kContinuous: the serving-policy layer (admission queue by KV budget,
  /// stage-boundary preemption). The default reproduces the raw streaming
  /// engine byte-identically; any non-default setting requires kContinuous.
  ServingConfig serving;
  /// kContinuous: feed every serving event (admit/resume/evict/finish)
  /// through the in-engine ledger auditor (scenario/invariants.hpp), which
  /// throws InvariantViolation on the cycle an invariant breaks. Stats are
  /// unaffected either way. LLAMCAT_AUDIT=1 in the environment forces it on.
  bool audit = false;

  /// Throws std::invalid_argument on an inconsistent pass shape; delegates
  /// the serving-policy checks to `serving.validate()`.
  void validate() const;
};

/// One operator instance in the pass's schedule.
struct ScheduledOp {
  std::uint32_t request_id = 0;
  std::uint32_t step = 0;  // decode step within the request
  std::uint32_t layer = 0;
  StageKind stage = StageKind::kLogit;
  std::string name;  // "req0/L1/attend" ("req0/s1/L1/attend" for step > 0)
  Workload workload;
};

/// Aggregated stats for one request across all of its layers/operators.
///
/// kIndependent: `stats` is the sum of the request's isolated operator runs
/// and `slice` stays zero. kCoScheduled: `stats.cycles` is the request's
/// resident time (the sum of the shared waves it ran in - co-scheduled
/// requests occupy the machine together, so their latency is the wave's),
/// the traffic fields are the request's attributed share of each shared
/// run, and `slice` keeps the raw attribution including cycles_in_flight.
struct RequestStats {
  std::uint32_t id = 0;
  std::uint64_t seq_len = 0;
  std::uint32_t decode_steps = 1;
  SimStats stats;
  RequestSlice slice;

  // Stream-time landmarks, valid only when `streamed` is true (kContinuous
  // fills them; the barrier modes have no stream clock, so their landmark
  // fields stay zero and the accessors below return kNeverCycle instead of
  // silently reading as a 0-cycle latency). admit_cycle is when the engine
  // actually enqueued the request's first operator (> arrival_cycle when
  // the serving queue held it back); finish_cycle is when its last operator
  // completed (its drain boundary when it finished alone in the machine).
  bool streamed = false;
  Cycle arrival_cycle = 0;
  Cycle admit_cycle = 0;
  Cycle finish_cycle = 0;
  /// Total stream cycles spent waiting in the serving queue: arrival to
  /// first admission plus every post-preemption re-queue wait.
  Cycle queued_cycles = 0;
  /// Times the serving policy evicted this request at a stage boundary.
  std::uint32_t preemptions = 0;
  /// Paged-KV counters (0 unless kv_evict=cold-blocks; see kv_block_pool.hpp).
  /// Cumulative KV blocks swapped out to the host tier across this
  /// request's preemptions...
  std::uint64_t swapped_blocks = 0;
  /// ...the bytes refetched from the host tier across its resumes...
  std::uint64_t refetch_bytes = 0;
  /// ...and the stream cycles its resumes were held back paying for those
  /// transfers (part of latency(): refetch delays the finish).
  Cycle refetch_cycles = 0;
  /// Prefix-sharing counters (0 unless kv_share; see kv_block_pool.hpp):
  /// shared blocks this request's first admission found resident, and the
  /// budget bytes that dedup saved it.
  std::uint64_t prefix_hit_blocks = 0;
  std::uint64_t prefix_hit_bytes = 0;
  /// Stream cycle each decode step's last operator completed (kContinuous
  /// only; size == decode_steps once the request finished, and the final
  /// entry equals finish_cycle). Consecutive gaps are the request's
  /// inter-token times - the TBT percentiles pool them batch-wide.
  std::vector<Cycle> step_finish_cycles;

  /// End-to-end latency in stream time (equals stats.cycles when streamed);
  /// kNeverCycle for barrier-mode results, which have no stream landmarks.
  [[nodiscard]] Cycle latency() const {
    return streamed ? finish_cycle - arrival_cycle : kNeverCycle;
  }
  /// Queue wait before first admission (kNeverCycle when not streamed).
  [[nodiscard]] Cycle admission_wait() const {
    return streamed ? admit_cycle - arrival_cycle : kNeverCycle;
  }
  /// Time-to-first-token: arrival to the first operator's dispatch into the
  /// live machine - queue wait plus admission/refetch holds plus dispatch
  /// lag, but none of the decode service time that latency() folds in.
  [[nodiscard]] Cycle ttft() const {
    return streamed ? slice.first_dispatch_cycle - arrival_cycle
                    : kNeverCycle;
  }

  /// `decode_steps` tokens are produced per request per pass.
  [[nodiscard]] double tokens_per_cycle() const {
    return stats.cycles > 0 ? static_cast<double>(decode_steps) /
                                  static_cast<double>(stats.cycles)
                            : 0.0;
  }
};

/// Aggregated stats for the whole batch. `total` folds every simulation run
/// (sequential-equivalent cycles); `per_op` keeps the raw results for
/// reporting/export - one entry per operator under kIndependent, one per
/// fused layer-stage wave under kCoScheduled.
struct BatchStats {
  ExecutionMode mode = ExecutionMode::kIndependent;
  SimStats total;
  std::vector<RequestStats> per_request;
  std::vector<ExperimentResult> per_op;
  /// Stream cycles from pass start to the last request's finish.
  /// kContinuous: the true end-to-end makespan including arrival gaps the
  /// engine skipped over. Barrier modes: equals total.cycles (waves run
  /// back-to-back; kIndependent's "makespan" is its sequential-equivalent
  /// sum).
  Cycle makespan = 0;

  /// Tokens produced this pass (sum of per-request decode steps).
  [[nodiscard]] std::uint64_t tokens() const {
    std::uint64_t n = 0;
    for (const RequestStats& r : per_request) n += r.decode_steps;
    return n;
  }

  /// Nearest-rank percentile (p in [0,100]) over per-request end-to-end
  /// latencies. kContinuous only: barrier modes have no stream landmarks,
  /// so this returns kNeverCycle there instead of aggregating garbage
  /// 0-cycle rows into a policy-comparison table.
  [[nodiscard]] Cycle latency_percentile(double p) const;
  /// Nearest-rank percentile over per-request TTFT (arrival -> first
  /// dispatch): the queue-bound component that latency_percentile used to
  /// conflate with service time. kNeverCycle outside kContinuous.
  [[nodiscard]] Cycle ttft_percentile(double p) const;
  /// Nearest-rank percentile over the batch-wide pool of per-step
  /// inter-token gaps (TBT): the service-bound component. kNeverCycle
  /// outside kContinuous or when no request decoded more than one step
  /// (a single step yields no inter-token gap).
  [[nodiscard]] Cycle tbt_percentile(double p) const;
  /// Serving-policy totals across the batch (0 under policy none).
  [[nodiscard]] std::uint64_t total_preemptions() const;
  [[nodiscard]] Cycle total_queue_wait() const;
  /// Paged-KV totals (0 unless the pass ran with kv_evict=cold-blocks).
  [[nodiscard]] std::uint64_t total_swapped_blocks() const;
  [[nodiscard]] std::uint64_t total_refetch_bytes() const;
  [[nodiscard]] Cycle total_refetch_cycles() const;
  /// True when the pass ran with the paged KV model (gates the swap/refetch
  /// columns in print() so non-paged tables stay unchanged).
  bool paged = false;

  /// True when the pass ran with the prefix-sharing block pool (kv_share);
  /// gates the sharing columns in print() exactly like `paged` gates the
  /// swap columns. The counters below stay 0 when sharing is off.
  bool shared = false;
  /// Shared blocks probed at first admissions...
  std::uint64_t kv_block_lookups = 0;
  /// ...and how many of those probes found the block resident (charged 0).
  std::uint64_t kv_block_hits = 0;
  /// Budget bytes dedup saved across first admissions (hits x block size).
  std::uint64_t kv_shared_bytes = 0;
  /// Bytes first admissions actually charged against the budget.
  std::uint64_t kv_charged_bytes = 0;
  /// Sum of admitted requests' peak footprints (what an all-private run
  /// would have charged). kv_charged_bytes == kv_logical_bytes -
  /// kv_shared_bytes always holds (audited).
  std::uint64_t kv_logical_bytes = 0;
  /// Fraction of shared-block probes that hit (0 when nothing was probed).
  [[nodiscard]] double kv_hit_rate() const {
    return kv_block_lookups > 0 ? static_cast<double>(kv_block_hits) /
                                      static_cast<double>(kv_block_lookups)
                                : 0.0;
  }
  /// Fraction of the logical footprint dedup never charged (0 = no reuse).
  [[nodiscard]] double kv_dedup_ratio() const {
    return kv_logical_bytes > 0 ? static_cast<double>(kv_shared_bytes) /
                                      static_cast<double>(kv_logical_bytes)
                                : 0.0;
  }

  /// Batch throughput: tokens produced this pass over sequential-equivalent
  /// cycles (barrier modes) or the stream makespan (kContinuous).
  [[nodiscard]] double tokens_per_cycle() const {
    const Cycle denom =
        mode == ExecutionMode::kContinuous ? makespan : total.cycles;
    return denom > 0 ? static_cast<double>(tokens()) /
                           static_cast<double>(denom)
                     : 0.0;
  }

  /// Per-request table (id, seq_len, cycles, tokens/cycle) followed by the
  /// batch totals and throughput.
  void print(std::ostream& os) const;
};

/// One decode step for a batch: per layer and per request, the
/// Logit -> Attend [-> GEMV] chain, lowered to auto-mapped Workloads with
/// per-(request, layer) tensor address slots so no two operator instances
/// alias the same simulated memory.
class DecodePass {
 public:
  DecodePass(RequestBatch batch, DecodePassConfig pass_cfg,
             const SimConfig& cfg);

  [[nodiscard]] const RequestBatch& batch() const { return batch_; }
  [[nodiscard]] const DecodePassConfig& pass_config() const {
    return pass_cfg_;
  }
  /// The full operator schedule, request-major then layer-major, each layer
  /// in Logit -> Attend [-> GEMV] order.
  [[nodiscard]] const std::vector<ScheduledOp>& schedule() const {
    return schedule_;
  }

  /// Runs the pass and aggregates. kIndependent routes every scheduled
  /// operator through run_experiments (`threads`-wide, 0 = hardware
  /// concurrency); kCoScheduled runs one fused System per layer-stage wave;
  /// kContinuous runs the streaming engine (both sequential; `threads` is
  /// ignored). All modes are deterministic for a fixed config: every
  /// simulation is single-threaded and seeded, and aggregation follows
  /// schedule/wave/stream order regardless of worker timing.
  [[nodiscard]] BatchStats run(std::size_t threads = 0,
                               bool verbose = false) const;

 private:
  [[nodiscard]] BatchStats run_independent(std::size_t threads,
                                           bool verbose) const;
  [[nodiscard]] BatchStats run_coscheduled(bool verbose) const;
  [[nodiscard]] BatchStats run_continuous(bool verbose) const;

  RequestBatch batch_;
  DecodePassConfig pass_cfg_;
  SimConfig cfg_;
  std::vector<ScheduledOp> schedule_;
};

}  // namespace llamcat::scenario
