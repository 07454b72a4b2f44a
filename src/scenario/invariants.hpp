// Serving-layer invariant contract: the properties every continuous-engine
// run must satisfy regardless of policy knobs, formalized as an audit layer
// callable from three places:
//
//  - the randomized stress fuzzer (tools/llamcat_stress + scenario/fuzz.hpp)
//    runs the full contract over thousands of drawn scenarios;
//  - the seeded-corpus regression suite (tests/test_serving_fuzz.cpp)
//    replays pinned seeds through the same checks on every CI run;
//  - ServingEngine (scenario/serving_engine.hpp) feeds the in-engine
//    ledger auditor when DecodePassConfig::audit is set (llamcat_cli sets
//    it from --audit), catching a violation on the exact cycle it happens
//    instead of post-mortem.
//
// The contract (docs/testing.md is the prose version):
//
//  1. No request is ever dropped: every request finishes, and every landmark
//     chain is monotone - arrival <= admit <= first_dispatch <=
//     last_complete <= finish <= makespan.
//  2. KV byte conservation, replayed block by block: every KV block is
//     resident and charged, on the host tier, or free; eviction frees
//     exactly the whole blocks whose last pinner left, resume re-pins
//     exactly the host-tier blocks no peer brought back, and a request
//     never finishes with blocks still swapped out. The engine's
//     resident-bytes ledger matches the auditor's shadow ledger after every
//     event, never exceeds the budget, and drains to zero.
//  3. Attribution conservation: per-request slices of thread blocks,
//     instructions and DRAM traffic sum to the batch totals, and each
//     slice's LLC hit/miss split adds up.
//  4. Policy accounting: no preemption => queue wait equals the admission
//     wait; policy none => no queueing at all; paging off => every paging
//     counter is zero; paging on => cumulative refetch bytes/cycles close
//     the swap ledger at the configured block size and link price.
//
// Same-seed determinism and policy-none byte-identity with the raw engine
// are two-run properties and live in scenario/fuzz.hpp (the fuzzer runs
// every scenario twice and diffs).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "scenario/kv_block_pool.hpp"
#include "scenario/scenario.hpp"

namespace llamcat::scenario {

/// Thrown by the in-engine ServingAuditor the moment a ledger invariant
/// breaks (the post-run audit_batch collects strings instead, so the fuzzer
/// can report every violation of a run at once).
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::runtime_error("serving invariant violated: " + what) {}
};

/// In-engine KV byte-ledger auditor. ServingEngine reports every serving
/// event (first admission, resume, eviction, finish) together with its own
/// resident-bytes ledger. The auditor replays the block-level lifecycle
/// (pin/unref/swap/free per (group, block) key) through its own shadow map
/// - independent of KvBlockPool's implementation; a private request simply
/// shares no blocks - and throws InvariantViolation on the first event
/// where the engine's ledger diverges from the sum of unique charged
/// blocks, a pin exceeds the budget, an eviction frees anything but the
/// blocks whose last pinner left, a resume refetches anything but the
/// blocks no peer re-pinned, a request finishes while evicted, or (at pass
/// end) a refcount fails to drain.
class ServingAuditor {
 public:
  /// `layouts[i]` is request i's KV geometry: its peak footprint (what the
  /// budget pins) and prefix identity. `block_bytes` is the block size
  /// (must be positive), `budget_bytes` 0 = unlimited. `paged` says whether
  /// preemption swaps blocks to the host tier (kv_evict = cold-blocks);
  /// off, evictions must free 0 bytes and pins survive preemption.
  ServingAuditor(std::uint64_t budget_bytes, std::uint64_t block_bytes,
                 bool paged, std::vector<KvBlockPool::RequestLayout> layouts);

  /// First admission of request i: pins its private region and its shared
  /// blocks (charging only the ones no peer holds resident).
  void on_admit(std::size_t i, Cycle now, std::uint64_t engine_resident);
  /// Re-admission of a preempted request: re-pins `refetched_bytes` (the
  /// host-tier share; 0 for a resident, non-evicted resume).
  void on_resume(std::size_t i, std::uint64_t refetched_bytes, Cycle now,
                 std::uint64_t engine_resident);
  /// Preemption of running request i: `freed_bytes` left the resident
  /// ledger for the host tier (0 under kv_evict=none).
  void on_evict(std::size_t i, std::uint64_t freed_bytes, Cycle now,
                std::uint64_t engine_resident);
  /// Request i finished: its private region and every shared block whose
  /// last holder it was unpin. Fails if it is still evicted (a finish can
  /// never race an outstanding swap).
  void on_finish(std::size_t i, Cycle now, std::uint64_t engine_resident);
  /// End of pass: every request finished, both ledgers drained to zero.
  void on_pass_end() const;

  [[nodiscard]] std::uint64_t resident_bytes() const { return resident_; }

 private:
  /// One shared block in the shadow map: alive while holders > 0,
  /// swappable only at pins == 0 (mirrors the pool's contract, but
  /// replayed independently).
  struct ShadowBlock {
    std::uint32_t pins = 0;
    std::uint32_t holders = 0;
    bool resident = true;
  };

  void check_resident(const char* event, std::size_t i,
                      std::uint64_t engine_resident) const;
  void check_clock(const char* event, std::size_t i, Cycle now);
  [[nodiscard]] std::uint64_t shared_blocks(std::size_t i) const;
  [[nodiscard]] std::uint64_t private_whole_blocks(std::size_t i) const;
  [[nodiscard]] std::uint64_t private_bytes(std::size_t i) const;
  [[nodiscard]] std::uint64_t shadow_key(std::size_t i,
                                         std::uint64_t block) const;

  std::uint64_t budget_;
  std::uint64_t block_bytes_;
  bool paged_;
  std::vector<KvBlockPool::RequestLayout> layouts_;
  std::vector<bool> admitted_;
  std::vector<bool> finished_;
  std::vector<bool> released_;  // evicted, not yet resumed (paged only)
  std::vector<std::uint64_t> private_swapped_blk_;
  std::map<std::uint64_t, ShadowBlock> blocks_;  // (group, index) -> state
  std::uint64_t resident_ = 0;  // shadow of the engine's ledger
  Cycle last_event_ = 0;        // serving events never move backwards
};

/// Result of the post-run contract check: empty = clean. Each violation is
/// one self-contained human-readable line.
struct AuditReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations joined with newlines ("" when clean).
  [[nodiscard]] std::string to_string() const;
};

/// Audits a finished pass against the invariant contract (items 1, 3 and 4
/// of the header comment; item 2 needs the in-engine auditor). Supports all
/// execution modes: barrier modes check the landmark sentinels and
/// (kCoScheduled) attribution instead of the stream landmarks.
[[nodiscard]] AuditReport audit_batch(const RequestBatch& batch,
                                      const DecodePassConfig& pass_cfg,
                                      const BatchStats& stats);

/// SLO/goodput accounting over a finished continuous run: a request attains
/// the SLO iff its TTFT (arrival -> first dispatch) is within
/// `slo_ttft_cycles`; goodput is the tokens those requests produced. The
/// counts partition the batch - attained + violated == finished is an
/// audited invariant (audit_open_loop), not an assumption.
struct SloReport {
  std::uint64_t finished = 0;
  std::uint64_t attained = 0;        // finished with TTFT <= the SLO
  std::uint64_t violated = 0;        // finished with TTFT  > the SLO
  std::uint64_t goodput_tokens = 0;  // decode tokens of attained requests
};

[[nodiscard]] SloReport slo_accounting(const BatchStats& stats,
                                       Cycle slo_ttft_cycles);

/// Open-loop additions to the contract, for workloads that came from an
/// arrival-process source (scenario/traffic.hpp) or a recorded trace:
///
///  5. The source emits in arrival order: arrival cycles are nondecreasing
///     in request-id order, and no request is admitted before its arrival.
///  6. TTFT landmarks are well-formed and monotone: every request
///     dispatched at or after its arrival, and its per-step finish cycles
///     are nondecreasing, one per decode step, ending exactly at the
///     finish landmark.
///  7. SLO-goodput accounting sums: attained + violated == finished ==
///     the whole batch (an unfinished or landmark-corrupt row cannot hide
///     inside either bucket).
///
/// Complements audit_batch (which keeps holding for these runs); callers
/// run both.
[[nodiscard]] AuditReport audit_open_loop(
    const std::vector<RequestSpec>& requests, const BatchStats& stats,
    Cycle slo_ttft_cycles);

}  // namespace llamcat::scenario
