// The LLC request arbiter (paper §4.1 + §4.3): selects which queued request
// enters the slice's lookup pipeline. Implements the paper's policies
//   FCFS  - baseline first-come first-served
//   B     - balanced: min per-core progress counter
//   MA    - MSHR-aware: speculated cache hit > MSHR hit > miss, FCFS ties
//   BMA   - MA with balanced tie-breaking
//   cobrra- FCFS request pick (COBRRA differs in req-resp arbitration)
// plus related-work / ablation policies (paper §7.3):
//   mrpb  - MRPB-style queue prioritization: drain one requester's stream
//           in a burst to preserve its locality
//   oracle- BMA with a ground-truth tag probe instead of the hit_buffer
//           (upper bound on what MA's speculation can achieve)
//   random- uniformly random pick (fairness-without-intent control)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/speculation.hpp"

namespace llamcat {

struct QueuedRequest;

/// Ground-truth lookup the oracle policy uses in place of the speculative
/// hit_buffer. Implemented by the owning LLC slice (a tag probe).
class ILookupOracle {
 public:
  virtual ~ILookupOracle() = default;
  [[nodiscard]] virtual bool is_cache_hit(Addr line_addr) const = 0;

 protected:
  ILookupOracle() = default;
};

/// Picks requests for one slice. MA and BMA keep a speculated class cached
/// on each queued request (paper Fig 5 as hardware builds it: a class that
/// updates when its inputs change). Every event that can change the class
/// of a line - a hit_buffer entry or eviction, a sent_reqs push or expiry
/// of an MSHR-bound entry, an MSHR allocation or release - marks the line
/// dirty, and pick() reclassifies only the queued requests on dirty lines.
/// The policies that never read the speculation structures (FCFS, B,
/// cobrra, MRPB, random) skip their upkeep entirely.
class RequestArbiter {
 public:
  RequestArbiter(const ArbConfig& cfg, std::uint32_t num_cores,
                 std::uint32_t sent_reqs_lifetime, std::uint64_t seed = 1);

  /// Speculated outcome classes, ordered by priority (paper §4.3.3).
  enum class SpecClass : std::uint8_t { kCacheHit = 0, kMshrHit = 1, kMiss = 2 };

  struct Choice {
    std::size_t index = 0;       // position in the request queue
    SpecClass spec = SpecClass::kMiss;
  };

  /// Picks a request from `queue` (nullopt when empty) by a full scan that
  /// classifies every entry afresh: the reference the incremental pick()
  /// must match. Pure decision; call on_selected() once the slice actually
  /// dequeues it. `oracle` supplies ground-truth tag state and is only
  /// consulted by ArbPolicy::kOracle (pass nullptr otherwise; kOracle then
  /// degrades to MSHR-only classification). Policies that do not speculate
  /// report their choice as kMiss: nothing reads their class.
  [[nodiscard]] std::optional<Choice> select(
      const std::vector<QueuedRequest>& queue, const Mshr& mshr,
      const ILookupOracle* oracle = nullptr) const;

  /// The slice's pick over its own queue: select() with MA/BMA reading the
  /// cached classes, after reclassifying the entries on dirty lines. The
  /// queue must have been filled through enqueue().
  [[nodiscard]] std::optional<Choice> pick(std::vector<QueuedRequest>& queue,
                                           const Mshr& mshr,
                                           const ILookupOracle* oracle);

  /// Appends `req` to `queue` with its class cached (MA/BMA).
  void enqueue(std::vector<QueuedRequest>& queue, const MemRequest& req,
               Cycle now, const Mshr& mshr);

  /// Bookkeeping when the chosen request enters the lookup pipeline:
  /// increments the requester's progress counter and, under MA, BMA and
  /// oracle, records the request in sent_reqs with its speculated-hit bit.
  void on_selected(const MemRequest& req, SpecClass spec, Cycle now);

  /// Bookkeeping when a lookup resolves as a cache hit (updates hit_buffer).
  void on_hit_determined(Addr line_addr);

  /// The MSHR allocated or released the entry of `line_addr`.
  void on_mshr_changed(Addr line_addr) { mark_dirty(line_addr); }

  /// Once per cycle: expire sent_reqs entries.
  void on_cycle(Cycle now);

  /// Combined hit_buffer + MSHR_snapshot + sent_reqs speculation (Fig 5).
  [[nodiscard]] SpecClass classify(Addr line_addr, const Mshr& mshr) const;

  /// Progress counters: requests served per core since the last reset
  /// (reset at the beginning of each operator execution, §4.1).
  [[nodiscard]] const std::vector<std::uint64_t>& progress() const {
    return progress_;
  }
  void reset_progress();

  [[nodiscard]] ArbPolicy policy() const { return cfg_.policy; }
  [[nodiscard]] const HitBuffer& hit_buffer() const { return hit_buffer_; }
  [[nodiscard]] const SentReqs& sent_reqs() const { return sent_reqs_; }

 private:
  [[nodiscard]] std::size_t pick_fcfs(
      const std::vector<QueuedRequest>& queue) const;
  [[nodiscard]] std::size_t pick_balanced(
      const std::vector<QueuedRequest>& queue) const;
  [[nodiscard]] Choice pick_mshr_aware(const std::vector<QueuedRequest>& queue,
                                       const Mshr& mshr,
                                       bool balanced_ties) const;
  [[nodiscard]] std::size_t pick_mrpb(
      const std::vector<QueuedRequest>& queue) const;
  [[nodiscard]] Choice pick_oracle(const std::vector<QueuedRequest>& queue,
                                   const Mshr& mshr,
                                   const ILookupOracle* oracle) const;
  [[nodiscard]] SpecClass classify_oracle(Addr line_addr, const Mshr& mshr,
                                          const ILookupOracle* oracle) const;
  /// Records that the class of `line_addr` may have changed (MA/BMA).
  void mark_dirty(Addr line_addr);
  /// Reclassifies the queued requests on dirty lines; clears the marks.
  void refresh_classes(std::vector<QueuedRequest>& queue, const Mshr& mshr);

  /// Dirty lines kept individually; past this many, pick() reclassifies
  /// the whole queue instead.
  static constexpr std::size_t kMaxDirty = 8;

  ArbConfig cfg_;
  bool speculates_;   // MA, BMA, oracle: hit_buffer/sent_reqs upkeep
  bool incremental_;  // MA, BMA: cached classes
  std::vector<Addr> dirty_;
  bool all_dirty_ = false;
  HitBuffer hit_buffer_;
  SentReqs sent_reqs_;
  std::vector<std::uint64_t> progress_;
  /// kMrpb: requester whose stream is currently being burst-drained.
  CoreId mrpb_core_ = static_cast<CoreId>(kInvalidCore);
  /// kRandom: RNG state is not logical arbiter state; select() stays const.
  mutable Xoshiro256 rng_;
};

/// A request waiting in the slice's request queue.
struct QueuedRequest {
  MemRequest req;
  Cycle enqueued_at = 0;
  /// MA/BMA: the speculated class, current whenever the arbiter picks.
  RequestArbiter::SpecClass spec = RequestArbiter::SpecClass::kMiss;
};

}  // namespace llamcat
