// Interconnect between cores and LLC slices: fixed-latency delay channels
// with per-slice credits for backpressure (paper Fig 3/4 models the NoC
// abstractly; contention is concentrated in the slice request queues).
// Requests travel one channel per slice; responses share one send-ordered
// FIFO, since the latency is constant and a core's fills touch only that
// core, so its fills arrive in the same order and cycles as over a channel
// of its own.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace llamcat {

/// FIFO whose elements become visible `latency` cycles after being pushed.
template <typename T>
class DelayChannel {
 public:
  explicit DelayChannel(std::uint32_t latency) : latency_(latency) {}

  void push(T item, Cycle now) {
    q_.push_back(Timed{now + latency_, std::move(item)});
  }

  /// Front element if it has matured by `now`.
  [[nodiscard]] const T* peek_ready(Cycle now) const {
    if (q_.empty() || q_.front().ready > now) return nullptr;
    return &q_.front().item;
  }

  T pop() {
    assert(!q_.empty());
    T item = std::move(q_.front().item);
    q_.pop_front();
    return item;
  }

  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

  /// Cycle at which the head matures (kNeverCycle when empty). The head is
  /// the minimum: latency is constant, so ready values are FIFO-ordered.
  [[nodiscard]] Cycle next_ready() const {
    return q_.empty() ? kNeverCycle : q_.front().ready;
  }

 private:
  struct Timed {
    Cycle ready;
    T item;
  };
  std::uint32_t latency_;
  std::deque<Timed> q_;
};

/// Core->slice request channels (credited) and the slice->core response
/// FIFO. A credit is consumed when a core injects a request toward a
/// slice and released when the slice accepts it into its request queue, so
/// slice-queue backpressure propagates to the cores.
class Network {
 public:
  Network(const NocConfig& cfg, std::uint32_t num_slices,
          std::uint32_t credits_per_slice = 32);

  // ---- request direction --------------------------------------------------
  [[nodiscard]] bool can_send_request(std::uint32_t slice) const {
    return credits_[slice] > 0;
  }
  // The accessors below run for every core and slice on every stepped
  // cycle (hot per the self-benchmark profile); all are inlined.
  void send_request(std::uint32_t slice, const MemRequest& req, Cycle now) {
    assert(can_send_request(slice));
    --credits_[slice];
    req_ch_[slice].push(req, now);
    ingress_.set(slice);
    ++requests_sent_;
    ++in_flight_;
  }
  /// Matured request at the head of a slice's ingress, if any.
  [[nodiscard]] const MemRequest* peek_request(std::uint32_t slice,
                                               Cycle now) const {
    return req_ch_[slice].peek_ready(now);
  }
  /// Pops the head request and releases its credit.
  MemRequest pop_request(std::uint32_t slice) {
    MemRequest r = req_ch_[slice].pop();
    if (req_ch_[slice].empty()) ingress_.reset(slice);
    ++credits_[slice];
    assert(credits_[slice] <= credits_per_slice_);
    --in_flight_;
    return r;
  }

  /// Slices with at least one request in flight toward them.
  [[nodiscard]] const DynBitset& ingress() const { return ingress_; }

  // ---- response direction -------------------------------------------------
  void send_response(const MemResponse& resp, Cycle now) {
    resp_ch_.push(resp, now);
    ++in_flight_;
  }
  /// Matured response at the head of the FIFO, if any (for any core).
  [[nodiscard]] const MemResponse* peek_response(Cycle now) const {
    return resp_ch_.peek_ready(now);
  }
  MemResponse pop_response() {
    --in_flight_;
    return resp_ch_.pop();
  }

  /// O(1): no messages in flight in either direction.
  [[nodiscard]] bool idle() const { return in_flight_ == 0; }
  [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }

  // ---- skip-ahead event hooks --------------------------------------------
  /// Maturity cycle of the head request toward `slice` (kNeverCycle if the
  /// channel is empty).
  [[nodiscard]] Cycle next_request_ready(std::uint32_t slice) const {
    return req_ch_[slice].next_ready();
  }
  /// Maturity cycle of the head response (kNeverCycle if none).
  [[nodiscard]] Cycle next_response_ready() const {
    return resp_ch_.next_ready();
  }

 private:
  std::vector<DelayChannel<MemRequest>> req_ch_;  // per slice
  DynBitset ingress_;                             // non-empty req_ch_
  DelayChannel<MemResponse> resp_ch_;
  std::vector<std::uint32_t> credits_;
  std::uint32_t credits_per_slice_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t in_flight_ = 0;  // total queued messages, both directions
};

}  // namespace llamcat
