// Thread-block scheduler. The paper's system partitions the trace statically
// across cores (one trace file per core, round-robin over the dispatch
// order) and adds a redistribution mechanism that sends thread blocks of a
// slow core to a fast core once the fast core runs out of its own work
// ("Without this feature, our baselines would be underestimated", §5).
//
// kPartitionedStealing reproduces that scheme (default). kGlobalQueue is a
// dynamic single-queue dispatcher kept for ablation studies.
//
// For fused multi-request sources (a committed DynamicTbSource) the
// scheduler is additionally request-aware: it reads each TbDesc's request
// tag, tracks per-request dispatch/completion, and supports RequestDispatch
// modes that either interleave co-resident requests across every core or
// pin each request to its own contiguous core group (stealing stays inside
// the group, so requests contend only in the shared LLC and DRAM).
//
// For growing sources (DynamicTbSource, the continuous-batching engine) the
// scheduler additionally supports mid-run injection: sync_with_source()
// pulls thread blocks appended to the source since the last sync, growing
// the per-request bookkeeping and dealing the new blocks into the queues by
// the same TbDispatch rules applied to the injected batch. Under
// RequestDispatch::kPartitioned, a request carved into a core group at
// construction keeps that group for injected blocks too; requests first
// seen via injection have no pre-carved group - their blocks are dealt
// over the cores no group owns (or a single home core when every core is
// carved) and stealing is unrestricted for them, because the static group
// carve-up needs the full request population up front, which a streaming
// admission source cannot provide.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {

/// Request-flight event sink: fired by the scheduler the moment a request's
/// first thread block is dispatched and the moment its last thread block
/// completes. Lets System record flight cycles without a per-cycle
/// O(num_requests) scan.
class IFlightObserver {
 public:
  virtual ~IFlightObserver() = default;
  virtual void on_first_dispatch(std::uint32_t req_index) = 0;
  virtual void on_request_complete(std::uint32_t req_index) = 0;
};

class TbScheduler {
 public:
  TbScheduler(const ITbSource& source, std::uint32_t num_cores,
              TbDispatch mode = TbDispatch::kPartitionedStealing,
              RequestDispatch req_mode = RequestDispatch::kShared);

  /// Next thread block for `core`: its own partition first, then (stealing
  /// modes) the front of the most-loaded other partition - restricted to
  /// the core's own request group under RequestDispatch::kPartitioned.
  std::optional<std::uint64_t> next_tb(CoreId core);

  /// Const mirror of next_tb's reachability: would next_tb(core) return a
  /// thread block right now? Mutates nothing; used by the skip-ahead probe
  /// to decide whether a core could fetch this cycle.
  [[nodiscard]] bool has_tb_for(CoreId core) const {
    if (queues_.size() == 1) return !queues_[0].empty();
    if (!queues_[core].empty()) return true;
    const std::uint32_t group =
        core_group_.empty() ? kNoRequest : core_group_[core];
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      if (group != kNoRequest && core_group_[c] != group) continue;
      if (!queues_[c].empty()) return true;
    }
    return false;
  }

  /// Registers the (single) flight observer; pass nullptr to detach.
  void set_flight_observer(IFlightObserver* obs) { observer_ = obs; }

  /// Records completion of `tb_idx` (per-request attribution) and asserts,
  /// in debug builds, that no thread block completes twice.
  void mark_complete(std::uint64_t tb_idx);

  /// Pulls thread blocks the source appended since construction / the last
  /// sync into the dispatch queues (see the header comment) and returns how
  /// many were injected. total() grows accordingly, so all_complete() means
  /// "everything injected so far is done".
  std::uint64_t sync_with_source();

  [[nodiscard]] bool all_complete() const { return completed_ >= total_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Pending queue depth feeding `core` (the shared queue depth under
  /// kGlobalQueue, which has a single queue regardless of core count).
  [[nodiscard]] std::uint64_t remaining_for(CoreId core) const {
    return queues_.size() == 1 ? queues_[0].size() : queues_[core].size();
  }
  [[nodiscard]] std::uint64_t stolen() const { return stolen_; }
  [[nodiscard]] const ITbSource& source() const { return source_; }

  // -- per-request attribution ------------------------------------------------
  /// Distinct request tags seen in the source so far (plain single-operator
  /// sources tag every TB with request 0; an empty source - a dynamic one
  /// before its first sync - has 0 requests).
  [[nodiscard]] std::uint32_t num_requests() const {
    return static_cast<std::uint32_t>(request_ids_.size());
  }
  /// External request id for a dense request index.
  [[nodiscard]] std::uint32_t request_id_at(std::uint32_t index) const {
    return request_ids_[index];
  }
  /// Dense request index of a thread block (O(1) array lookup; safe on the
  /// core's issue path).
  [[nodiscard]] std::uint32_t request_index_of_tb(std::uint64_t tb_idx) const {
    return tb_req_idx_[tb_idx];
  }
  [[nodiscard]] std::uint64_t total_of(std::uint32_t req_index) const {
    return req_total_[req_index];
  }
  [[nodiscard]] std::uint64_t dispatched_of(std::uint32_t req_index) const {
    return req_dispatched_[req_index];
  }
  [[nodiscard]] std::uint64_t completed_of(std::uint32_t req_index) const {
    return req_completed_[req_index];
  }
  /// Dense index of an external request id, or kNoRequest if the scheduler
  /// has not seen a thread block of that request yet. O(requests), intended
  /// for the (cold) admission path, not per-TB use.
  [[nodiscard]] std::uint32_t dense_index_of(std::uint32_t request_id) const {
    for (std::uint32_t r = 0; r < request_ids_.size(); ++r) {
      if (request_ids_[r] == request_id) return r;
    }
    return kNoRequest;
  }

 private:
  void build_queues(std::uint32_t num_cores,
                    const std::vector<std::uint64_t>& order);
  void build_partitioned_queues(std::uint32_t num_cores);
  /// Registers TB `t`'s request tag (growing the dense bookkeeping for a
  /// first appearance) and returns its dense request index.
  std::uint32_t scan_request(std::uint64_t t);
  /// TB indices [first, last), reordered round-robin across requests when
  /// RequestDispatch::kInterleave asks for it (source order otherwise).
  [[nodiscard]] std::vector<std::uint64_t> dispatch_order(
      std::uint64_t first, std::uint64_t last) const;

  const ITbSource& source_;
  TbDispatch mode_;
  RequestDispatch req_mode_;
  std::uint64_t total_;
  std::uint64_t completed_ = 0;
  std::uint64_t stolen_ = 0;
  std::vector<std::deque<std::uint64_t>> queues_;  // per core; [0] if global

  // Request bookkeeping (dense indices, order of first appearance).
  std::vector<std::uint32_t> request_ids_;
  std::vector<std::uint32_t> tb_req_idx_;
  std::vector<std::uint64_t> req_total_;
  std::vector<std::uint64_t> req_dispatched_;
  std::vector<std::uint64_t> req_completed_;
  /// kPartitioned: request group owning each core (kNoRequest = any).
  std::vector<std::uint32_t> core_group_;
  std::vector<bool> done_;  // double-complete guard
  IFlightObserver* observer_ = nullptr;
};

}  // namespace llamcat
