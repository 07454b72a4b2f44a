// The continuous engine's serving decisions: the request state machine, the
// KV ledger, and every point where a continuous pass (a chain of System
// segments on one stream clock) decides who moves - the segment start, the
// per-cycle admission hook and the drain boundary. The engine reads the
// segment scheduler's per-request completed/total counts and keeps no copy
// of them. The state machine's edges are public so tests can drive them
// without a System.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/enum_names.hpp"
#include "common/types.hpp"
#include "scenario/invariants.hpp"
#include "scenario/kv_block_pool.hpp"
#include "scenario/scenario.hpp"
#include "scenario/serving.hpp"

namespace llamcat {
class System;
class TbScheduler;
}  // namespace llamcat

namespace llamcat::scenario {

/// Serving state of one request in the continuous engine. Every request is
/// in exactly one state; the transitions are the edges of the diagram in
/// docs/architecture.md ("Request serving states"), one ServingEngine
/// member function each.
enum class ReqState : std::uint8_t {
  kPending,     // not yet arrived
  kWaiting,     // arrived, in the serving queue, never admitted
  kRefetching,  // admitted (budget pinned), next operator held back until
                // the host-tier refetch lands at `refetch_ready`
  kRunning,     // its operator chain advances in the live machine
  kPreempted,   // back in the serving queue with its KV admitted
  kFinished,
};
inline constexpr std::size_t kNumReqStates =
    static_cast<std::size_t>(ReqState::kFinished) + 1;

NameTable<ReqState> enum_names(ReqState);

/// Serving state machine, KV ledger and segment decisions of one
/// continuous pass. It owns each request's state, operator cursor and
/// queue clock, the stream clock, the KV block pool and the optional
/// ledger auditor; run_continuous owns the machine (System +
/// DynamicTbSource) and folds its stats. Every transition checks its
/// source state and throws std::logic_error naming the edge when called
/// from the wrong one.
class ServingEngine {
 public:
  /// Adds one streamed row per request to `out.per_request` (request
  /// index = batch order) and splits `schedule` into per-request operator
  /// chains in schedule order. Under AdmitPolicy::kNone every arrival is
  /// admitted the cycle it arrives: the raw streaming engine, byte for byte.
  ServingEngine(const RequestBatch& batch, const DecodePassConfig& pass_cfg,
                const std::vector<ScheduledOp>& schedule, BatchStats& out);

  [[nodiscard]] ReqState state(std::size_t i) const { return req_[i].state; }
  [[nodiscard]] std::size_t count(ReqState s) const {
    return count_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool all_finished() const {
    return count(ReqState::kFinished) == reqs_.size();
  }
  /// Stream cycle where the current (after end_segment: next) segment starts.
  [[nodiscard]] Cycle base() const { return base_; }
  [[nodiscard]] std::size_t index_of(std::uint32_t request_id) const {
    return index_.at(request_id);
  }

  // -- the segment loop -----------------------------------------------------

  /// Starts a segment at the stream clock (hopping it over idle time):
  /// arrivals, the paged eviction sweep, admissions; stages and commits
  /// the segment's first operators into `src`, which must outlive the
  /// segment. Returns how many requests start it.
  std::size_t start_segment(DynamicTbSource& src);
  /// The segment System's admission hook at segment cycle `now`: arrivals,
  /// refetch landings, stage handoffs, the freed-budget admission sweep
  /// and the wake hint.
  void on_cycle(System& sys, Cycle now);
  /// Drain boundary of the segment `sys` ran; moves the stream clock past it.
  void end_segment(const System& sys);
  /// End of pass: closes the auditor and folds the pool's counters.
  void end_pass() {
    if (auditor_) auditor_->on_pass_end();
    if (out_.shared) {
      out_.kv_block_lookups = pool_.total_lookups();
      out_.kv_block_hits = pool_.total_hits();
      out_.kv_shared_bytes = pool_.total_shared_bytes();
      out_.kv_charged_bytes = pool_.total_charged_bytes();
      out_.kv_logical_bytes = pool_.total_logical_bytes();
    }
  }

  // -- edges of the request state machine -----------------------------------

  /// Every request whose arrival clock has struck by `now` enters the
  /// serving queue (see arrive). Returns whether any did. O(1) when none
  /// is due: the arrival cursor only ever moves forward.
  bool notice_arrivals(Cycle now) {
    const std::size_t first = arrived_;
    while (arrived_ < by_arrival_.size() &&
           reqs_[by_arrival_[arrived_]].arrival_cycle <= now) {
      arrive(by_arrival_[arrived_++], now);
    }
    return arrived_ != first;
  }

  /// kWaiting -> kRunning | kRefetching: first admission. Pins the request's
  /// effective (dedup-aware) footprint against the budget and stamps the
  /// admit landmark. A prefix peer may have released a shared block to the
  /// host tier; reusing it pays the link transfer like any paged resume.
  void admit(std::size_t i, Cycle now) {
    require(i, ReqState::kWaiting, "admit");
    RequestStats& rs = out_.per_request[i];
    rs.queued_cycles += now - req_[i].queue_enter;
    rs.admit_cycle = now;
    const KvBlockPool::Admission a = pool_.admit(i);
    resident_ += a.charged_bytes;
    rs.prefix_hit_blocks += a.hit_blocks;
    rs.prefix_hit_bytes += a.hit_bytes;
    enter_machine(i, now, a);
    if (auditor_) auditor_->on_admit(i, now, resident_);
  }

  /// kPreempted -> kRunning | kRefetching: re-admission. A resident
  /// preemptee re-pins nothing; a paged one re-pins its swapped blocks and
  /// waits out their refetch.
  void resume(std::size_t i, Cycle now) {
    require(i, ReqState::kPreempted, "resume");
    out_.per_request[i].queued_cycles += now - req_[i].queue_enter;
    KvBlockPool::Admission a;
    if (paged_) {
      a = pool_.resume(i);
      resident_ += a.charged_bytes;
    }
    enter_machine(i, now, a);
    if (auditor_) auditor_->on_resume(i, a.charged_bytes, now, resident_);
  }

  /// kRefetching -> kRunning once the transfer landed (`refetch_ready` <=
  /// now). Returns false, changing nothing, while it is still in flight.
  bool land_refetch(std::size_t i, Cycle now) {
    require(i, ReqState::kRefetching, "land_refetch");
    if (req_[i].refetch_ready > now) return false;
    set(i, ReqState::kRunning);
    return true;
  }

  /// kRunning -> kPreempted at a stage boundary: the request re-enters the
  /// serving queue and - in paged mode - its cold blocks swap out, freeing
  /// budget bytes. Refcounted eviction: only blocks whose last pinner this
  /// was swap out, so `freed` can be less than the whole-block footprint.
  void preempt(std::size_t i, Cycle now) {
    require(i, ReqState::kRunning, "preempt");
    set(i, ReqState::kPreempted);
    req_[i].queue_enter = now;
    RequestStats& rs = out_.per_request[i];
    ++rs.preemptions;
    std::uint64_t freed = 0;
    if (paged_) {
      freed = pool_.release(i);
      unpin(i, freed, "preempt");
      rs.swapped_blocks += freed / pool_.config().block_bytes;
    }
    if (auditor_) auditor_->on_evict(i, freed, now, resident_);
  }

  /// kRunning -> kFinished: the last operator completed. A finish unrefs
  /// instead of freeing: shared blocks a peer still holds stay resident
  /// and charged, so the freed bytes can be less than the footprint.
  void finish(std::size_t i, Cycle now) {
    require(i, ReqState::kRunning, "finish");
    if (!chain_done(i)) {
      throw std::logic_error("ServingEngine::finish: request " +
                             std::to_string(i) + " still has operators left");
    }
    set(i, ReqState::kFinished);
    out_.per_request[i].finish_cycle = now;
    unpin(i, pool_.finish(i), "finish");
    if (auditor_) auditor_->on_finish(i, now, resident_);
  }

  /// The running request's next operator; advances its cursor.
  const ScheduledOp& take_next(std::size_t i) {
    require(i, ReqState::kRunning, "take_next");
    ++epoch_;
    return schedule_[chains_[i][req_[i].cursor++]];
  }

  /// Earliest landmark after `after` the engine can act on by itself: an
  /// unarrived request's arrival or a refetch completion. kNeverCycle when
  /// there is none. The arrival half searches the arrival-sorted pending
  /// suffix; every caller has just noticed the arrivals due by `after`, so
  /// the search stops at its first entry. The refetch half scans only
  /// while a refetch is in flight.
  [[nodiscard]] Cycle next_landmark(Cycle after) const {
    Cycle next = kNeverCycle;
    const auto pending = std::find_if(
        by_arrival_.begin() + static_cast<std::ptrdiff_t>(arrived_),
        by_arrival_.end(),
        [&](std::size_t i) { return reqs_[i].arrival_cycle > after; });
    if (pending != by_arrival_.end()) next = reqs_[*pending].arrival_cycle;
    if (count(ReqState::kRefetching) == 0) return next;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (state(i) == ReqState::kRefetching &&
          req_[i].refetch_ready > after) {
        next = std::min(next, req_[i].refetch_ready);
      }
    }
    return next;
  }
  /// next_landmark for a stream-clock hop over an idle machine, which
  /// needs one to exist: a stalled stream must not jump to kNeverCycle.
  [[nodiscard]] Cycle hop_target(Cycle after, const char* where) const {
    const Cycle next = next_landmark(after);
    if (next != kNeverCycle) return next;
    throw std::logic_error(
        std::string("ServingEngine::hop_target: ") + where +
        " at stream cycle " + std::to_string(after) +
        " with no pending arrival or refetch (" +
        std::to_string(count(ReqState::kFinished)) + " of " +
        std::to_string(reqs_.size()) + " requests finished)");
  }

 private:
  static constexpr std::size_t kNobody = static_cast<std::size_t>(-1);

  struct Req {
    ReqState state = ReqState::kPending;
    std::size_t cursor = 0;  // next chain op to enqueue
    Cycle queue_enter = 0;   // stream cycle it last entered the queue
    Cycle refetch_ready = 0;  // kRefetching: when its transfer lands
  };

  /// Holds its budget share in the machine: running or refetching.
  [[nodiscard]] bool live(std::size_t i) const {
    return state(i) == ReqState::kRunning ||
           state(i) == ReqState::kRefetching;
  }
  [[nodiscard]] std::size_t num_live() const {
    return count(ReqState::kRunning) + count(ReqState::kRefetching);
  }
  [[nodiscard]] bool queued(std::size_t i) const {
    return state(i) == ReqState::kWaiting ||
           state(i) == ReqState::kPreempted;
  }
  [[nodiscard]] bool chain_done(std::size_t i) const {
    return req_[i].cursor == chains_[i].size();
  }

  /// kPending -> kWaiting: the arrival clock struck; the request enters the
  /// serving queue. Only notice_arrivals calls it, in arrival order, which
  /// keeps kPending exactly the suffix of by_arrival_ past the cursor.
  void arrive(std::size_t i, Cycle now) {
    require(i, ReqState::kPending, "arrive");
    set(i, ReqState::kWaiting);
    req_[i].queue_enter = now;
  }
  /// Dispatches an admission-sweep pick to its edge.
  void admit_queued(std::size_t i, Cycle now) {
    state(i) == ReqState::kWaiting ? admit(i, now) : resume(i, now);
  }
  /// Whether live request i's next operator may enter the machine at `now`
  /// (a refetching request lands first if its transfer is done).
  bool ready_to_enqueue(std::size_t i, Cycle now) {
    return state(i) == ReqState::kRunning || land_refetch(i, now);
  }

  // -- the segment's machine ------------------------------------------------

  /// Stages the running request's next operator into the segment source.
  void enqueue_next(std::size_t i) {
    const ScheduledOp& op = take_next(i);
    src_->add(op.request_id, op.workload.op, op.workload.mapping);
  }
  /// Mid-flight admission sweep: admits the policy's picks in index order
  /// and stages those that may run at once (not a paged resume's refetch).
  void admit_sweep(Cycle now) {
    std::vector<std::size_t> picks = select();
    std::sort(picks.begin(), picks.end());
    for (const std::size_t i : picks) {
      admit_queued(i, now);
      if (ready_to_enqueue(i, now)) enqueue_next(i);
    }
  }
  /// The operator at cursor-1 of request i completed at `at`: if it closes
  /// a decode step, stamp the step-finish landmark (the TBT clock).
  void stamp_step_finish(std::size_t i, Cycle at) {
    const std::size_t c = req_[i].cursor;
    if (c == chains_[i].size() ||
        schedule_[chains_[i][c]].step != schedule_[chains_[i][c - 1]].step) {
      out_.per_request[i].step_finish_cycles.push_back(at);
    }
  }
  /// Commits whatever is staged and publishes it to the live machine.
  void inject(System& sys);
  /// Whether the segment scheduler holds thread blocks of request i and
  /// completed them all.
  [[nodiscard]] bool op_completed(std::size_t i, const TbScheduler& sch);
  /// Skip-ahead contract: the wake hint is the next landmark on_cycle acts
  /// on by itself; every invocation elided before it is a no-op
  /// (completions surface through busy cycles, which forbid skipping).
  void publish_hint(System& sys, Cycle global) const;

  // -- policy inputs --------------------------------------------------------

  /// Whether running request i yields its stage boundary: preemption is on
  /// and the policy prefers a much-shorter co-runner or blocked arrival.
  [[nodiscard]] bool should_yield(std::size_t i) const {
    return policy_.config().preempt &&
           policy_.should_preempt(remaining_work(i), running_work(i),
                                  eviction_pressure_on(i));
  }
  /// Remaining service-demand estimate: remaining chain operators weighted
  /// by the request's peak KV tokens (longer contexts, longer operators).
  [[nodiscard]] std::uint64_t remaining_work(std::size_t i) const {
    return (chains_[i].size() - req_[i].cursor) *
           batch_.peak_kv_tokens(reqs_[i]);
  }
  /// A live request's demand adds one operator's worth for the one in
  /// flight (the cursor already advanced past it): a request mid-way
  /// through its last operator still holds the machine for that operator's
  /// length, so yield checks must not read it as "zero remaining" and
  /// preempt a genuinely shorter neighbor in its favor.
  [[nodiscard]] std::vector<std::uint64_t> running_work(
      std::size_t except) const {
    std::vector<std::uint64_t> w;
    for (std::size_t j = 0; j < reqs_.size(); ++j) {
      if (j != except && live(j)) {
        w.push_back(remaining_work(j) + batch_.peak_kv_tokens(reqs_[j]));
      }
    }
    return w;
  }
  /// Blocked candidates only pressure victim i when evicting it would
  /// actually free bytes: with no releasable whole block (block size larger
  /// than the footprint, or everything already out) the preemption would
  /// be pure churn - the blocked candidate stays blocked and the victim
  /// just lost its stage boundary.
  [[nodiscard]] std::vector<std::uint64_t> eviction_pressure_on(
      std::size_t i) const {
    if (!paged_ || pool_.releasable_blocks(i) == 0) return {};
    return blocked_work();
  }
  /// The admission sweep over the serving queue.
  [[nodiscard]] std::vector<std::size_t> select() const {
    std::vector<AdmissionPolicy::Candidate> q;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (queued(i)) {
        q.push_back({i, reqs_[i].arrival_cycle, remaining_work(i),
                     admit_bytes(i)});
      }
    }
    if (q.empty()) return {};
    return policy_.select(std::move(q), running_work(kNobody), resident_);
  }
  /// Bytes an admission of queued request i would newly pin: its effective
  /// (dedup-aware) footprint on first admission, the swapped-out share on a
  /// paged resume, 0 for a resident preemptee. Pool estimates are
  /// conservative upper bounds: shared blocks can only get cheaper between
  /// this estimate and the actual admission, so the gate never over-admits.
  [[nodiscard]] std::uint64_t admit_bytes(std::size_t i) const {
    if (state(i) == ReqState::kWaiting) return pool_.admit_cost(i);
    return paged_ ? pool_.resume_cost(i) : 0;
  }
  /// Paged mode: remaining work of queued candidates the free budget cannot
  /// hold. They exert preemption pressure (should_preempt's blocked_work) -
  /// evicting a much-longer runner's cold blocks is what unblocks them.
  [[nodiscard]] std::vector<std::uint64_t> blocked_work() const {
    std::vector<std::uint64_t> w;
    const std::uint64_t budget = policy_.config().kv_budget_bytes;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (queued(i) && resident_ + admit_bytes(i) > budget) {
        w.push_back(remaining_work(i));
      }
    }
    return w;
  }

  void set(std::size_t i, ReqState s) {
    --count_[static_cast<std::size_t>(req_[i].state)];
    ++count_[static_cast<std::size_t>(s)];
    req_[i].state = s;
    ++epoch_;
  }
  void require(std::size_t i, ReqState expect, const char* edge) const {
    if (state(i) == expect) return;
    throw std::logic_error(std::string("ServingEngine::") + edge +
                           ": request " + std::to_string(i) + " is " +
                           to_string(state(i)) + ", not " + to_string(expect));
  }
  /// Moves into the machine after an admission: straight to kRunning, or to
  /// kRefetching while the admission's host-tier blocks transfer back.
  void enter_machine(std::size_t i, Cycle now,
                     const KvBlockPool::Admission& a) {
    if (a.refetch_blocks == 0) {
      set(i, ReqState::kRunning);
      return;
    }
    RequestStats& rs = out_.per_request[i];
    rs.refetch_bytes += a.refetch_bytes;
    rs.refetch_cycles += a.refetch_cycles;
    req_[i].refetch_ready = now + a.refetch_cycles;
    set(i, ReqState::kRefetching);
  }
  /// Drops `bytes` from the resident ledger; an underflow is a corrupt
  /// ledger, never a value to wrap around.
  void unpin(std::size_t i, std::uint64_t bytes, const char* edge) {
    if (bytes > resident_) {
      throw std::logic_error(std::string("ServingEngine::") + edge +
                             ": request " + std::to_string(i) + " frees " +
                             std::to_string(bytes) + " KV bytes but only " +
                             std::to_string(resident_) + " are resident");
    }
    resident_ -= bytes;
  }

  const std::vector<RequestSpec>& reqs_;
  const RequestBatch& batch_;
  const std::vector<ScheduledOp>& schedule_;
  BatchStats& out_;
  const AdmissionPolicy policy_;
  const bool paged_;
  const FuseOrder interleave_;
  std::unordered_map<std::uint32_t, std::size_t> index_;  // id -> index
  std::vector<std::vector<std::size_t>> chains_;  // schedule indices
  std::vector<Req> req_;
  std::array<std::size_t, kNumReqStates> count_{};
  /// Request indices stable-sorted by arrival cycle; the first `arrived_`
  /// have arrived, the rest are exactly the kPending requests.
  std::vector<std::size_t> by_arrival_;
  std::size_t arrived_ = 0;
  /// Bumped by every state change and every operator-cursor advance: the
  /// engine-side inputs of the hook's stage-handoff scan.
  std::uint64_t epoch_ = 0;
  /// KV bytes pinned by admitted, unfinished requests. Under kv_evict=none
  /// a preempted request keeps its whole charge pinned; under cold-blocks
  /// eviction its swapped blocks leave this ledger until the resume
  /// refetch re-pins them.
  std::uint64_t resident_ = 0;
  KvBlockPool pool_;
  std::optional<ServingAuditor> auditor_;

  // The current segment (start_segment .. end_segment).
  Cycle base_ = 0;  // stream cycle where it starts
  DynamicTbSource* src_ = nullptr;
  /// Each request's dense scheduler index, kNoRequest until the segment
  /// scheduler has seen it (the hook runs every cycle, so the due check
  /// must be plain array reads, not lookups).
  std::vector<std::uint32_t> dense_;
  /// (completed TBs, epoch) at the last stage-handoff scan that found
  /// nothing (see on_cycle step 2).
  std::uint64_t idle_completed_ = 0;
  std::uint64_t idle_epoch_ = 0;
};

}  // namespace llamcat::scenario
