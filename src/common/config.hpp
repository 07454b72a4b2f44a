// Simulated-system configuration. `SimConfig::table5()` reproduces the
// paper's Table 5 setup exactly; every knob the paper sweeps is a field here.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/enum_names.hpp"
#include "common/types.hpp"

namespace llamcat {

// ---------------------------------------------------------------------------
// Cache policy vocabulary (paper §5: "Add cache policies like allocate-on-
// fill, write-no-allocate, write-through, while originally Ramulator2 only
// supports allocate-on-miss, write-allocate, write-back").
// ---------------------------------------------------------------------------

enum class WriteHitPolicy : std::uint8_t { kWriteBack, kWriteThrough };
enum class WriteMissPolicy : std::uint8_t { kWriteAllocate, kWriteNoAllocate };
/// When a missing line is installed: on miss issue (reserving early) or on
/// fill return (paper's LLC and L1 both use allocate-on-fill).
enum class FillPolicy : std::uint8_t { kAllocOnMiss, kAllocOnFill };
/// Insertion position for newly filled lines. kStreaming inserts at LRU so
/// single-use streaming data (the K tensor) does not evict reused data.
/// Under kSrrip replacement, kMru inserts at RRPV=2 ("long" re-reference)
/// and kStreaming at RRPV=3 ("distant").
enum class InsertPolicy : std::uint8_t { kMru, kStreaming };
/// kSrrip is 2-bit static RRIP; kFifo evicts in insertion order (touch is
/// a no-op, insertion policy is ignored).
enum class ReplPolicy : std::uint8_t {
  kLru,
  kTreePlru,
  kRandom,
  kSrrip,
  kFifo,
};

/// Fill-bypass policy for the LLC slice's bypass manager (paper Fig 4
/// step 5; disabled - kNone - throughout the paper's evaluation, §3.2).
enum class BypassPolicy : std::uint8_t {
  kNone,           // install every fill (the paper's setting)
  kAll,            // never install (LLC degenerates to a merge buffer)
  kProbabilistic,  // install with fixed probability (bimodal insertion)
  kReuseHistory,   // per-region reuse predictor (COBRRA-flavored)
};

struct BypassConfig {
  BypassPolicy policy = BypassPolicy::kNone;
  /// kProbabilistic: probability a fill is KEPT (not bypassed).
  double keep_probability = 0.5;
  /// kReuseHistory: direct-mapped table of 2-bit reuse counters.
  std::uint32_t table_entries = 256;
  /// Region granularity in bytes (log2): lines within one region share a
  /// counter. 12 = 4 KiB regions.
  std::uint32_t region_log2 = 12;
  /// Minimum counter value for fills from the region to be kept.
  std::uint32_t keep_threshold = 1;

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;
};

/// LLC request-selection policy (paper §4.1/§4.3 + baselines §6.2.3,
/// plus related-work/ablation arbiters, §7.3).
enum class ArbPolicy : std::uint8_t {
  kFcfs,      // default: first-come first-served
  kBalanced,  // "B": min progress counter of requester
  kMa,        // "MA": speculated hit > MSHR-hit > miss, FCFS tie-break
  kBma,       // "BMA": MA with balanced tie-break
  kCobrra,    // baseline [3]: FCFS request pick + its req/resp arbitration
  kMrpb,      // related work [9]: per-core queue prioritization (burst
              // drain of one requester's stream to preserve its locality)
  kOracle,    // ablation: BMA with a ground-truth tag probe instead of the
              // hit_buffer speculation (upper bound on MA prediction)
  kRandom,    // control: uniformly random pick (fairness without intent)
};

/// Request-vs-response arbitration for the shared storage port (paper §3.3).
enum class RespArbPolicy : std::uint8_t {
  kResponseFirst,  // serve a pending response whenever one exists (default)
  kRequestFirst,   // requests win until the response queue is full
};

/// Thread-block dispatch scheme (paper §5). The paper generates one trace
/// file per core (Timeloop maps the parallel H/G dimensions spatially
/// across cores, so each core owns a contiguous chunk of the (h,g,l-tile)
/// iteration space) and adds slow->fast redistribution. kStaticBlocked
/// reproduces that; the other two are kept for ablation studies.
enum class TbDispatch : std::uint8_t {
  kStaticBlocked,        // contiguous per-core chunks + stealing (paper)
  kPartitionedStealing,  // wave-preserving round-robin + stealing
  kGlobalQueue,          // dynamic single queue (idealized scheduler)
};

/// Request-aware dispatch for fused multi-request sources (CompositeTbSource
/// tags each TbDesc with its serving request). Controls how co-resident
/// requests share the cores; single-request sources behave identically
/// under every mode.
enum class RequestDispatch : std::uint8_t {
  kShared,        // request-blind: TBs dealt in source order (default)
  kInterleave,    // dispatch order round-robins across requests, so every
                  // core's queue alternates requests (max LLC mixing)
  kPartitioned,   // cores split into contiguous per-request groups; a
                  // request's TBs stay on its own cores (stealing included)
};

/// How the scenario layer executes a multi-request decode batch: every
/// operator in its own private System with stats summed (kIndependent, the
/// optimistic no-contention bound), one fused System per layer-stage wave
/// in which co-resident requests contend for the shared LLC (kCoScheduled),
/// or one long-lived streaming System per decode pass in which each request
/// flows into its next operator the moment its own previous one completes
/// and new requests are admitted mid-pass by arrival cycle (kContinuous,
/// vLLM-style iteration-level batching).
enum class ExecutionMode : std::uint8_t {
  kIndependent,
  kCoScheduled,
  kContinuous,
};

/// Admission discipline of the continuous engine's serving-policy layer
/// (scenario/serving.hpp). kNone admits every arrival unconditionally the
/// moment its clock strikes (the raw streaming engine); the queueing
/// disciplines hold arrivals in a serving queue while the resident KV
/// footprint exceeds the configured budget and decide who is admitted first
/// when capacity frees.
enum class AdmitPolicy : std::uint8_t {
  kNone,               // unconditional admission (no queue, no budget)
  kFcfs,               // queue drained in arrival order (head-of-line blocks)
  kShortestRemaining,  // queue drained by least remaining work first
};

/// Block-granular KV eviction mode of the serving-policy layer
/// (scenario/serving.hpp + scenario/kv_block_pool.hpp). kNone keeps a preempted
/// request's KV fully resident (PR 4 semantics: preemption relieves
/// cache/compute contention but never budget pressure). kColdBlocks swaps
/// the preempted request's cold KV blocks out to a modeled DRAM/host tier,
/// freeing their budget bytes immediately; resume charges a refetch cost
/// before the request re-enters its next stage (vLLM/LMCache-style paging).
enum class KvEvictPolicy : std::uint8_t {
  kNone,        // preempted KV stays resident (exact stage-boundary resume)
  kColdBlocks,  // swap cold blocks to the host tier, refetch at resume
};

/// Arrival process of the open-loop traffic generator
/// (scenario/traffic.hpp). kPoisson draws i.i.d. exponential inter-arrival
/// gaps; kBursty alternates dense on-phases with long off-gaps (on-off /
/// MMPP-flavored); kDiurnal modulates the Poisson rate with a
/// piecewise-linear day-cycle multiplier.
enum class TrafficProcess : std::uint8_t {
  kPoisson,
  kBursty,
  kDiurnal,
};

/// Sampling distribution for per-request sizes (sequence length, decode
/// steps) in the traffic generator. kUniform draws uniformly over the
/// configured [min, max]; kLognormal draws a clamped lognormal whose
/// log-space median is the geometric midpoint of the range (the heavy-tail
/// shape real seq-len mixes show).
enum class TrafficDist : std::uint8_t {
  kUniform,
  kLognormal,
};

/// Thread-throttling controller (paper §4.2 + baselines §6.2.3).
enum class ThrottlePolicy : std::uint8_t {
  kNone,    // "unoptimized"
  kDyncta,  // baseline [11]: per-core DYNCTA on all cores
  kLcs,     // baseline [15]: fix max_tb after observing the first TB
  kDynMg,   // ours: two-level dynamic multi-gear throttling
};

// Name tables (common/enum_names.hpp): canonical name first, then aliases.
NameTable<ArbPolicy> enum_names(ArbPolicy);
NameTable<RespArbPolicy> enum_names(RespArbPolicy);
NameTable<ThrottlePolicy> enum_names(ThrottlePolicy);
NameTable<TbDispatch> enum_names(TbDispatch);
NameTable<RequestDispatch> enum_names(RequestDispatch);
NameTable<ExecutionMode> enum_names(ExecutionMode);
NameTable<AdmitPolicy> enum_names(AdmitPolicy);
NameTable<KvEvictPolicy> enum_names(KvEvictPolicy);
NameTable<TrafficProcess> enum_names(TrafficProcess);
NameTable<TrafficDist> enum_names(TrafficDist);
NameTable<BypassPolicy> enum_names(BypassPolicy);
NameTable<ReplPolicy> enum_names(ReplPolicy);
NameTable<InsertPolicy> enum_names(InsertPolicy);

// ---------------------------------------------------------------------------
// Per-subsystem configuration blocks.
// ---------------------------------------------------------------------------

struct CoreConfig {
  std::uint32_t num_cores = 16;
  std::uint32_t num_inst_windows = 4;    // TB slots per core
  std::uint32_t inst_window_depth = 128; // in-flight instructions per window
  std::uint32_t issue_width = 1;         // instructions issued per cycle
  std::uint32_t retire_width = 4;        // completions retired per cycle
  std::uint32_t vector_lanes = 128;      // elements per vector instruction
  std::uint32_t store_buffer_size = 64;  // posted write-through stores
  TbDispatch tb_dispatch = TbDispatch::kStaticBlocked;
  RequestDispatch request_dispatch = RequestDispatch::kShared;

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;
};

struct L1Config {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t assoc = 8;
  std::uint32_t latency = 1;  // hit latency in cycles
  /// Outstanding line misses per core. The paper's cores are bounded by
  /// instruction-window occupancy (4 windows x depth 128), not by an L1
  /// miss queue, so the default is large enough to never be the limiter -
  /// max_tb throttling then directly controls per-core MLP.
  std::uint32_t miss_queue_entries = 512;
  InsertPolicy insert = InsertPolicy::kStreaming;
  ReplPolicy repl = ReplPolicy::kLru;
  WriteHitPolicy write_hit = WriteHitPolicy::kWriteThrough;
  WriteMissPolicy write_miss = WriteMissPolicy::kWriteNoAllocate;
  FillPolicy fill = FillPolicy::kAllocOnFill;

  /// Throws std::invalid_argument when the cache geometry is inconsistent.
  void validate() const;
};

struct LlcConfig {
  std::uint64_t size_bytes = 16ull * 1024 * 1024;
  std::uint32_t assoc = 8;
  std::uint32_t num_slices = 8;
  std::uint32_t hit_latency = 3;    // tag lookup
  std::uint32_t data_latency = 25;  // hit data return
  std::uint32_t mshr_latency = 5;   // MSHR probe after a tag miss
  std::uint32_t mshr_entries = 6;   // per slice (numEntry)
  std::uint32_t mshr_targets = 8;   // per entry (numTarget)
  std::uint32_t req_q_size = 12;
  std::uint32_t resp_q_size = 64;
  InsertPolicy insert = InsertPolicy::kMru;
  ReplPolicy repl = ReplPolicy::kLru;
  WriteHitPolicy write_hit = WriteHitPolicy::kWriteBack;
  WriteMissPolicy write_miss = WriteMissPolicy::kWriteAllocate;
  FillPolicy fill = FillPolicy::kAllocOnFill;
  RespArbPolicy resp_arb = RespArbPolicy::kResponseFirst;
  /// kRequestFirst / COBRRA: responses preempt once resp-queue occupancy
  /// reaches this fraction.
  double resp_q_high_water = 0.75;
  /// Fill-bypass manager (paper Fig 4 step 5; kNone in the evaluation).
  BypassConfig bypass;

  /// Throws std::invalid_argument when fields are inconsistent
  /// (delegates to bypass.validate() for the bypass block).
  void validate() const;
};

struct ArbConfig {
  ArbPolicy policy = ArbPolicy::kFcfs;
  std::uint32_t hit_buffer_depth = 32;  // recent-hit FIFO (paper Fig 4/5)
  std::uint32_t sent_reqs_depth = 16;   // in-flight-lookup FIFO

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;
};

struct NocConfig {
  std::uint32_t req_latency = 10;   // core -> slice, cycles
  std::uint32_t resp_latency = 10;  // slice -> core, cycles

  /// Every representable latency pair is modelable today (0 = ideal NoC,
  /// used by unit tests); the hook exists so a future constraint fails
  /// loudly here instead of deep in a run.
  void validate() const {}
};

/// DDR5-3200, 4 channels x 4 ranks, 8Gb x16 devices (Table 5). A channel is
/// modeled as the two ganged 32-bit DDR5 subchannels (64-bit logical
/// channel): one 64B line moves in 4 DRAM cycles, peak
/// 4 ch x 8 B x 3200 MT/s = 102.4 GB/s.
struct DramConfig {
  std::uint32_t num_channels = 4;
  std::uint32_t ranks_per_channel = 4;
  std::uint32_t bankgroups_per_rank = 4;  // DDR5 x16: 4 BG x 2 banks
  std::uint32_t banks_per_bankgroup = 2;
  std::uint32_t rows_per_bank = 65536;
  std::uint32_t row_bytes = 2048;  // 32 cache lines per row
  std::uint32_t channel_data_bytes = 8;  // 64-bit logical channel
  std::uint32_t burst_length = 8;        // 64B / 8B per beat
  double dram_hz = 1.6e9;                // DDR5-3200 I/O clock
  /// Controller + PHY + on-die transport latency added to each read return,
  /// in DRAM cycles (50ns at DDR5-3200). Makes the unloaded round trip
  /// ~85 ns, which puts the 48-entry MSHR pool's concurrency-limited
  /// bandwidth at the paper's observed 31-38 GB/s (Fig 8).
  std::uint32_t ctrl_latency = 80;
  std::uint32_t read_q_size = 16;        // per channel
  std::uint32_t write_q_size = 16;       // per channel
  double write_drain_high = 0.75;        // start draining writes
  double write_drain_low = 0.25;         // stop draining writes
  bool enable_refresh = true;

  // Timings in DRAM cycles (tCK = 0.625 ns at DDR5-3200).
  std::uint32_t tCL = 24;
  std::uint32_t tCWL = 22;
  std::uint32_t tRCD = 24;
  std::uint32_t tRP = 24;
  std::uint32_t tRAS = 52;
  std::uint32_t tRC = 76;
  std::uint32_t tCCD_S = 4;   // back-to-back bursts on the 64-bit channel
  std::uint32_t tCCD_L = 8;
  std::uint32_t tRRD_S = 8;
  std::uint32_t tRRD_L = 8;
  std::uint32_t tFAW = 32;
  std::uint32_t tWR = 48;
  std::uint32_t tRTP = 12;
  std::uint32_t tWTR_S = 10;
  std::uint32_t tWTR_L = 16;
  std::uint32_t tRTW = 12;   // read->write turnaround on the bus
  std::uint32_t tRFC = 472;  // 295 ns
  std::uint32_t tREFI = 6240;  // 3.9 us

  /// Throws std::invalid_argument when the DRAM geometry is inconsistent.
  void validate() const;
};

/// Two-level dynamic multi-gear throttling (ours) + baseline parameters.
/// Defaults are the paper's swept optima (Tables 2-4).
struct ThrottleConfig {
  ThrottlePolicy policy = ThrottlePolicy::kNone;

  // dynmg: global level (Table 2) ------------------------------------------
  std::uint32_t sampling_period = 2000;  // cycles
  std::uint32_t sub_period = 400;        // cycles
  std::uint32_t max_gear = 4;
  /// Fraction (x/8) of cores throttled per gear, Table 1: 0,1/8,1/4,1/2,3/4.
  std::uint32_t gear_eighths[5] = {0, 1, 2, 4, 6};
  // Contention classification on t_cs (Table 3 structure). The paper's
  // swept bands are 0.1 / 0.2 / 0.375; our substrate's DRAM:core balance
  // yields a higher baseline t_cs (~0.6 even when purely miss-handling-
  // bound, where throttling cannot help), so the bands are re-swept upward
  // (bench/ablation_throttle_params). The gear then engages exactly in the
  // capacity-pressure regime, as Algorithm 1 intends.
  double tcs_low = 0.62;
  double tcs_normal = 0.68;
  double tcs_high = 0.75;

  // dynmg: in-core level (Table 4; the paper's swept optima) ---------------
  std::uint32_t c_idle_upper = 4;
  std::uint32_t c_mem_upper = 250;
  std::uint32_t c_mem_lower = 180;

  // DYNCTA baseline: one-level period + thresholds scaled to that period.
  std::uint32_t dyncta_period = 2048;
  std::uint32_t dyncta_c_idle_upper = 20;
  std::uint32_t dyncta_c_mem_upper = 1280;
  std::uint32_t dyncta_c_mem_lower = 920;

  // LCS baseline: max_tb = clamp(round(windows * (1 - lcs_scale * stall
  // fraction of the first TB)), 1, windows).
  double lcs_scale = 1.0;

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;
};

/// Top-level simulation configuration.
struct SimConfig {
  double core_hz = 1.96e9;
  CoreConfig core;
  L1Config l1;
  LlcConfig llc;
  ArbConfig arb;
  NocConfig noc;
  DramConfig dram;
  ThrottleConfig throttle;
  std::uint64_t seed = 1;
  /// Hard safety limit; a run exceeding this throws (deadlock guard).
  Cycle max_cycles = 2'000'000'000;

  /// The paper's Table 5 configuration.
  static SimConfig table5();

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;

  /// Short "16c/16MB/8sl/BMA/dynmg" style description for reports.
  std::string summary() const;
};

}  // namespace llamcat
