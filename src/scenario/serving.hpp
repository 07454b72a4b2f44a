// Serving-policy layer for the continuous-batching engine: KV-pressure-aware
// admission plus stage-boundary preemption.
//
// The raw streaming engine (PR 3) admits every arrival unconditionally, so a
// batch's aggregate KV working set can grow far past anything the modeled
// LLC+DRAM budget could hold. The policy layer caps co-residency by
// *aggregate peak KV footprint in bytes*: while the resident requests' KV
// exceeds `kv_budget_bytes`, new arrivals wait in a serving queue (they are
// queued, never dropped) and are admitted in the order the configured
// discipline dictates - FCFS (arrival order, head-of-line blocking when the
// head does not fit) or shortest-remaining-first (least remaining service
// demand first, the SJF regime of *Online Scheduling for LLM Inference with
// KV Cache Constraints*).
//
// Preemption (`preempt`) bounds short-request tail latency: a running
// request is evicted at a stage boundary when a co-running request holds
// `preempt_ratio`x less remaining work. Under `kv_evict = none` (the PR 4
// default) the evicted request's KV stays resident (it keeps its budget
// share and its address slot - nothing is recomputed), it re-enters the
// serving queue, and it resumes from its next operator once no much-shorter
// request is running. Because the KV is not freed, resident preemption
// relieves *compute/cache contention*, not budget pressure - a
// budget-blocked candidate is never unblocked by preempting someone, which
// is exactly why the admission sweep skips yield-blocked candidates but
// stops at budget-blocked ones.
//
// `kv_evict = cold-blocks` changes that: a preemption additionally swaps
// the preempted request's cold KV blocks out to a modeled DRAM/host tier
// (scenario/kv_block_pool.hpp), freeing their budget bytes immediately, and a
// budget-blocked *much shorter* queued candidate now counts as preemption
// pressure (`should_preempt`'s `blocked_work`) - so a long lone request
// yields its stage boundary, and its budget share, to a short arrival that
// would otherwise wait for its finish (swap-based admission). The price is
// paid at resume: the swapped blocks re-pin their bytes and the request's
// next operator is held back for the refetch transfer.
//
// docs/architecture.md walks the full admission/preemption/paging state
// machine; docs/metrics.md defines every counter this layer reports.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace llamcat::scenario {

/// Re-exported as the scenario vocabulary (defined in common/config.hpp so
/// the CLI option layer can parse it without depending on this layer).
using llamcat::AdmitPolicy;

/// Knobs of the serving-policy layer. The default configuration
/// (kNone / unlimited / no preemption) reproduces the raw PR 3 streaming
/// engine byte-identically.
struct ServingConfig {
  AdmitPolicy policy = AdmitPolicy::kNone;
  /// Aggregate peak KV footprint the machine may hold, in bytes
  /// (0 = unlimited). Gated at admission: a request pins its peak footprint
  /// (see RequestBatch::peak_kv_bytes) from first admission until finish.
  std::uint64_t kv_budget_bytes = 0;
  /// Evict a running request at a stage boundary when a co-running request
  /// holds `preempt_ratio`x less remaining work (KV stays resident, the
  /// evicted request re-enters the queue).
  bool preempt = false;
  /// Preemption threshold: request i yields to co-running j iff
  /// remaining_work(i) > remaining_work(j) * preempt_ratio. >= 1 keeps
  /// uniform batches from preempting each other.
  std::uint32_t preempt_ratio = 2;
  /// Paged KV eviction on preemption (requires preempt and a finite
  /// kv_budget_bytes). kNone keeps preempted KV resident (PR 4 exact);
  /// kColdBlocks swaps cold blocks to the modeled host tier and charges a
  /// refetch at resume.
  KvEvictPolicy kv_evict = KvEvictPolicy::kNone;
  /// Fixed KV block size of the block pool, in bytes (0 = the default
  /// line-granule block, kLineBytes). Must be a multiple of kLineBytes.
  std::uint64_t kv_block_bytes = 0;
  /// Core cycles charged per refetched block at resume (0 = derive from
  /// the modeled ~8 B/cycle host link; see KvBlockPoolConfig::cycles_per_block).
  Cycle refetch_cost = 0;
  /// Cross-request KV prefix reuse (scenario/kv_block_pool.hpp): requests
  /// in the same prefix group share the KV blocks of their common prefix,
  /// each unique block charges the budget once, and eviction respects the
  /// block refcounts. Off (the default) keeps every request's KV private
  /// and ignores any RequestSpec prefix identity - byte-identical to the
  /// pre-pool engine. Composes with any admission policy and with paged
  /// eviction; `kv_block_bytes` sets the sharing granule either way.
  bool kv_share = false;

  /// True when the configuration is the raw unconditional-admission engine.
  [[nodiscard]] bool unconditional() const {
    return policy == AdmitPolicy::kNone;
  }

  /// True when preemption swaps KV out instead of keeping it resident.
  [[nodiscard]] bool paged() const {
    return kv_evict == KvEvictPolicy::kColdBlocks;
  }

  /// Throws std::invalid_argument on contradictory settings (a budget or
  /// preemption without a queueing discipline, a zero preempt ratio,
  /// eviction without preemption + a finite budget, a block size that is
  /// not a positive line multiple).
  void validate() const;
};

/// The admission/preemption decision logic, separated from the segment
/// engine's state machine so it is unit-testable and reusable. All inputs
/// are plain snapshots; the engine owns the actual queue membership,
/// resident-bytes accounting and request state.
class AdmissionPolicy {
 public:
  /// One queued request, as the engine sees it at decision time.
  struct Candidate {
    /// Engine-side request index (returned from select()).
    std::size_t index = 0;
    /// Original arrival cycle (FCFS seniority survives preemption).
    Cycle arrival = 0;
    /// Remaining service-demand estimate (remaining chain operators times
    /// peak KV tokens - any deterministic monotone estimate works).
    std::uint64_t remaining_work = 0;
    /// Bytes this admission would newly pin against the budget: the
    /// request's peak KV footprint, or 0 when it is already resident
    /// (a preempted request re-entering keeps its KV).
    std::uint64_t kv_bytes = 0;
  };

  explicit AdmissionPolicy(const ServingConfig& cfg);

  [[nodiscard]] const ServingConfig& config() const { return cfg_; }

  /// Picks which queued candidates to admit right now, in admission order.
  /// `queued` must be passed in request-index order (kNone admits in that
  /// order, preserving the raw engine's behavior); the queueing disciplines
  /// re-sort it. `running_work` is the remaining work of every currently
  /// running request; `resident_bytes` the KV bytes already pinned by
  /// resident (running or preempted) requests.
  ///
  /// Sweep rules: a candidate that would immediately yield to a running
  /// request (preemption enabled) is skipped - and, in paged mode, one
  /// that yields to a much-shorter queued peer (otherwise FCFS seniority
  /// would re-admit a just-evicted long request ahead of the short whose
  /// blocked admission triggered the eviction, paying the refetch for
  /// nothing); a candidate that does not fit the budget stops the sweep
  /// (budget frees in finish order - skipping would let arbitrarily late
  /// small requests starve the head). When nothing is running and the
  /// sweep admitted nobody, the first candidate that fits the budget is
  /// force-admitted (ignoring yield) so an idle machine with a non-empty
  /// queue always makes progress.
  [[nodiscard]] std::vector<std::size_t> select(
      std::vector<Candidate> queued,
      const std::vector<std::uint64_t>& running_work,
      std::uint64_t resident_bytes) const;

  /// Stage-boundary preemption decision for a running request with
  /// `remaining_work`, given the other running requests' remaining work.
  [[nodiscard]] bool should_preempt(
      std::uint64_t remaining_work,
      const std::vector<std::uint64_t>& co_running_work) const;

  /// Eviction-aware variant: `blocked_work` is the remaining work of queued
  /// candidates that do not fit the free budget. Under kv_evict=cold-blocks
  /// they count as preemption pressure too - yielding to one frees its
  /// blocker's budget bytes (swap-based admission), so a long lone request
  /// hands the machine to a much-shorter blocked arrival instead of making
  /// it wait for the finish. Under kv_evict=none blocked candidates are
  /// ignored (preempting for them could never unblock them).
  [[nodiscard]] bool should_preempt(
      std::uint64_t remaining_work,
      const std::vector<std::uint64_t>& co_running_work,
      const std::vector<std::uint64_t>& blocked_work) const;

 private:
  [[nodiscard]] bool yields_to_any(
      std::uint64_t remaining_work,
      const std::vector<std::uint64_t>& running_work) const;

  ServingConfig cfg_;
};

}  // namespace llamcat::scenario
