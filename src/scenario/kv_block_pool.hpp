// KV block pool for the serving layer: every request's KV footprint is split
// into fixed-size blocks that are charged against `--kv-budget`, swapped to
// a modeled host tier at preemption (LMCache-style offload) and refetched at
// resume, with cross-request prefix reuse through ref-counted,
// hash-addressed shared blocks.
//
// Two requests decoding from the same system prompt would each pin a full
// copy of the prefix KV if every footprint were private. Real traffic has
// massive prefix overlap (system prompts, few-shot templates, multi-turn
// chats - the LMCache/Kcache regime), and the pool makes that overlap
// visible to every policy knob: at a request's first admission its prefix
// is probed block-by-block against a hash table keyed (prefix group, block
// index); hits pin the existing block (refcount++) and charge the budget
// ZERO new bytes, misses allocate and charge once, and from then on the
// block is shared - eviction respects refcounts (only a block whose last
// pinner released it can swap to the host tier), and finish/preempt unref
// instead of free.
//
// The pool is pure bookkeeping: it owns no simulated memory and injects no
// traffic itself. A pool belongs to one single-threaded serving run.
//
// Block-level state machine. Every tracked unit is in exactly one state:
//
//   resident+charged  - counted in the engine's resident-bytes ledger;
//   host              - swapped out, uncharged, but still owned (holders>0):
//                       a host block is never freed while any admitted
//                       unfinished request holds it, so every swap-out is
//                       refetched exactly once;
//   free              - not in the pool (never admitted, or last holder
//                       finished).
//
// Two refcounts per shared block: `pins` counts holders currently admitted
// to the machine (release decrements it; a block is swappable only at
// pins == 0), `holders` counts admitted-unfinished associated requests
// (finish decrements it; the block is freed only at holders == 0). A
// request's non-prefix region stays private and moves as one compact run -
// at a stage-boundary preemption every whole block is cold, and a partial
// tail block stays resident and charged for the request's whole life
// (blocks are the transfer granule; a fraction of one cannot move).
// Sharing itself is whole-block granular: a prefix of P bytes shares
// floor(P / block_bytes) blocks and its remainder is private per request.
//
// With no request in a prefix group (or `--kv-share=off`) every region is
// private: admission charges the whole footprint, eviction frees its whole
// blocks, resume refetches exactly those, and finish frees the footprint.
//
// See docs/architecture.md ("KV block pool") for how the pool slots into
// the admission/preemption state machine and docs/metrics.md for the
// swap/refetch and hit/shared-byte counters it feeds.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace llamcat::scenario {

/// Sentinel: the request belongs to no prefix group (fully private KV).
inline constexpr std::uint32_t kNoPrefixGroup = 0xFFFFFFFFu;

/// Knobs of the block pool. Defaults follow the line-granule KV rounding:
/// one block = one 64-byte cache line, priced at the modeled host link.
struct KvBlockPoolConfig {
  /// Fixed KV block size in bytes: the sharing, swap and accounting granule.
  /// Must be a positive multiple of kLineBytes (KV is line-granular
  /// everywhere else in the simulator).
  std::uint64_t block_bytes = kLineBytes;
  /// Core cycles charged per refetched block. 0 derives block_bytes / 8 (an
  /// ~8 B/cycle host link: 16 GB/s at the 1.96 GHz Table 5 core clock -
  /// PCIe-gen4-x16-ish, the LMCache regime).
  Cycle refetch_cost = 0;

  /// The effective per-block refetch price after the 0-default resolves.
  [[nodiscard]] Cycle cycles_per_block() const {
    if (refetch_cost != 0) return refetch_cost;
    const Cycle derived = block_bytes / 8;
    return derived == 0 ? 1 : derived;
  }

  /// Throws std::invalid_argument on a bad block size.
  void validate() const;
};

/// Shared, ref-counted KV block pool. Request indices are ServingEngine's
/// dense request indices (0 .. num_requests-1, batch order; see
/// scenario/serving_engine.hpp). All mutating calls enforce the request
/// lifecycle (admit -> [release -> resume]* -> finish) and throw
/// std::logic_error on a misuse such as a double release or a finish while
/// released - the engine never does these, and the ledger tests pin that
/// the pool refuses them.
class KvBlockPool {
 public:
  /// Per-request block-layout input: the peak footprint the budget pins and
  /// the prefix identity that decides which leading blocks are shared.
  struct RequestLayout {
    std::uint64_t footprint_bytes = 0;
    std::uint32_t prefix_group = kNoPrefixGroup;
    /// Prefix length in bytes (<= footprint_bytes). Only the whole blocks
    /// of it are shared; the remainder is private to the request.
    std::uint64_t prefix_bytes = 0;
  };

  /// What one admission (first or resume) did to the ledger.
  struct Admission {
    /// Bytes newly charged against the budget (allocations + refetches).
    std::uint64_t charged_bytes = 0;
    /// Shared blocks probed (first admissions only; resumes re-pin blocks
    /// the request already owns, which is not a prefix lookup).
    std::uint64_t lookup_blocks = 0;
    /// Probes that found the block resident: charged 0, pure dedup win.
    std::uint64_t hit_blocks = 0;
    std::uint64_t hit_bytes = 0;
    /// Host-tier blocks brought back (charged AND priced: a peer released
    /// the shared block to the host tier, so reusing it pays the link).
    std::uint64_t refetch_blocks = 0;
    std::uint64_t refetch_bytes = 0;
    Cycle refetch_cycles = 0;
  };

  KvBlockPool(const KvBlockPoolConfig& cfg,
              std::vector<RequestLayout> layouts);

  [[nodiscard]] const KvBlockPoolConfig& config() const { return cfg_; }

  /// First admission of request i: probes its shared prefix block-by-block,
  /// allocates its private region, pins and charges per the header comment.
  Admission admit(std::size_t i);
  /// Re-admission of a released (preempted + evicted) request: re-pins its
  /// blocks; host-tier ones refetch and re-charge, still-resident shared
  /// ones (a peer kept them warm) re-pin for free.
  Admission resume(std::size_t i);
  /// Preemption swap-out of running request i: unpins all its blocks and
  /// swaps the cold ones - private whole blocks plus shared blocks whose
  /// refcount dropped to zero - to the host tier. A shared block a peer
  /// still pins stays resident and charged (refcounted eviction: the swap
  /// is refused for that block). Returns the budget bytes freed.
  std::uint64_t release(std::size_t i);
  /// Request i finished: unrefs everything; blocks whose last holder this
  /// was are freed. Returns the budget bytes freed (less than the footprint
  /// when a peer still holds shared blocks). The request must be admitted
  /// and not released (a released request resumes before finishing).
  std::uint64_t finish(std::size_t i);

  // -- const cost queries for the admission sweep ---------------------------
  /// Bytes admit(i) would charge right now (the effective, deduped
  /// footprint the budget gate sees). Upper bound on the eventual charge:
  /// blocks can only become cheaper (a peer admits them first), never
  /// dearer, between the sweep's estimate and the actual admission.
  [[nodiscard]] std::uint64_t admit_cost(std::size_t i) const;
  /// Bytes resume(i) would charge right now (the host-tier share).
  [[nodiscard]] std::uint64_t resume_cost(std::size_t i) const;
  /// Blocks release(i) would actually move to the host tier right now:
  /// private whole blocks plus shared blocks this request is the sole
  /// pinner of. 0 means eviction-driven preemption would free nothing.
  [[nodiscard]] std::uint64_t releasable_blocks(std::size_t i) const;

  // -- cumulative pool stats (bench/report rows; see docs/metrics.md) -------
  [[nodiscard]] std::uint64_t total_lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t total_hits() const { return hits_; }
  /// Bytes first admissions did NOT charge thanks to resident shared blocks.
  [[nodiscard]] std::uint64_t total_shared_bytes() const { return shared_bytes_; }
  /// Bytes first admissions actually charged.
  [[nodiscard]] std::uint64_t total_charged_bytes() const { return charged_bytes_; }
  /// Sum of admitted requests' footprints (the all-private charge).
  [[nodiscard]] std::uint64_t total_logical_bytes() const { return logical_bytes_; }

 private:
  /// One shared block: alive while holders > 0, resident or on the host
  /// tier, swappable only at pins == 0.
  struct Entry {
    std::uint32_t pins = 0;
    std::uint32_t holders = 0;
    bool resident = true;
  };
  enum class ReqState : std::uint8_t { kNew, kActive, kReleased, kFinished };

  [[nodiscard]] std::uint64_t shared_blocks(std::size_t i) const;
  [[nodiscard]] std::uint64_t private_whole_blocks(std::size_t i) const;
  [[nodiscard]] std::uint64_t private_bytes(std::size_t i) const;
  /// The shared block's entry, or nullptr when it is not in the pool.
  [[nodiscard]] const Entry* find(std::uint32_t group,
                                  std::uint64_t index) const;
  [[nodiscard]] static std::uint64_t block_key(std::uint32_t group,
                                               std::uint64_t index);
  void require_state(std::size_t i, ReqState expect, const char* call) const;

  KvBlockPoolConfig cfg_;
  std::vector<RequestLayout> layouts_;
  std::vector<ReqState> state_;
  /// Private whole blocks of request i currently on the host tier.
  std::vector<std::uint64_t> private_swapped_;
  /// (group, index) -> shared block.
  std::unordered_map<std::uint64_t, Entry> table_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t shared_bytes_ = 0;
  std::uint64_t charged_bytes_ = 0;
  std::uint64_t logical_bytes_ = 0;
};

}  // namespace llamcat::scenario
