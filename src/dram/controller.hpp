// Per-channel FR-FCFS memory controller with open-page policy, write
// draining and all-bank refresh.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/timing.hpp"

namespace llamcat {

/// A line-granular request as seen by the DRAM system. `payload` is opaque to
/// the controller and returned with the completion callback (the LLC encodes
/// the owning slice / MSHR entry there).
struct DramRequest {
  Addr line_addr = 0;
  bool is_write = false;
  std::uint64_t payload = 0;
};

struct DramCompletion {
  Addr line_addr = 0;
  std::uint64_t payload = 0;
  DramTick finish_tick = 0;
};

/// One DDR5 channel: request queues + scheduler + bank state.
class DramController {
 public:
  DramController(const DramConfig& cfg, const DramTiming& timing,
                 const AddressMap& map, std::uint32_t channel_id);

  [[nodiscard]] bool can_accept_read() const {
    return read_q_.size() < cfg_.read_q_size;
  }
  [[nodiscard]] bool can_accept_write() const {
    return write_q_.size() < cfg_.write_q_size;
  }
  [[nodiscard]] bool can_accept(const DramRequest& r) const {
    return r.is_write ? can_accept_write() : can_accept_read();
  }

  /// Precondition: can_accept(r).
  void enqueue(const DramRequest& r, DramTick now);

  /// Runs DRAM tick `now`; completed reads are appended to `done`. Only
  /// ticks at or after next_event() need to run.
  void tick(DramTick now, std::vector<DramCompletion>& done);

  /// The earliest tick at which tick() does anything: the in-flight read
  /// front's finish, the next refresh, or the quiet-until tick (0, due at
  /// once, after an enqueue, an issued command or a refresh). Every tick
  /// before it would change nothing.
  [[nodiscard]] DramTick next_event() const {
    DramTick t = std::min(quiet_until_, next_refresh_);
    if (!inflight_reads_.empty()) {
      t = std::min(t, inflight_reads_.front().finish_tick);
    }
    return t;
  }

  [[nodiscard]] bool idle() const {
    return read_q_.empty() && write_q_.empty() && inflight_reads_.empty();
  }

  // ---- skip-ahead event hooks --------------------------------------------
  /// Unfinished read work (queued or awaiting data latency). Writes are
  /// excluded: they produce no completion events.
  [[nodiscard]] bool has_read_work() const {
    return !read_q_.empty() || !inflight_reads_.empty();
  }
  /// Conservative earliest DRAM tick at which this channel could deliver a
  /// read completion: the minimum in-flight finish tick, lower-bounded for
  /// queued reads by an issue at tick now+1 plus the fixed data latency.
  /// Returns kNeverTick when there is no read work.
  [[nodiscard]] DramTick next_read_event(DramTick now) const {
    DramTick f = kNeverTick;
    if (!inflight_reads_.empty()) f = inflight_reads_.front().finish_tick;
    if (!read_q_.empty()) {
      f = std::min(f, now + 1 + timing_.read_latency() + cfg_.ctrl_latency);
    }
    return f;
  }

  /// Hot-path counters (plain fields; converted to a StatSet on demand).
  struct Counters {
    std::uint64_t reads_enq = 0;
    std::uint64_t writes_enq = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t row_conflicts = 0;
    std::uint64_t refreshes = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] StatSet stats() const;

 private:
  struct Entry {
    DramRequest req;
    DramCoord coord;
    DramTick arrival = 0;
    bool activated_for = false;  // an ACT was issued on behalf of this entry
  };

  Bank& bank_of(const DramCoord& c) {
    return banks_[(c.rank * cfg_.bankgroups_per_rank + c.bankgroup) *
                      cfg_.banks_per_bankgroup +
                  c.bank];
  }
  const Bank& bank_of(const DramCoord& c) const {
    return const_cast<DramController*>(this)->bank_of(c);
  }
  BankGroupState& bg_of(const DramCoord& c) {
    return bankgroups_[c.rank * cfg_.bankgroups_per_rank + c.bankgroup];
  }
  const BankGroupState& bg_of(const DramCoord& c) const {
    return const_cast<DramController*>(this)->bg_of(c);
  }

  bool maybe_refresh(DramTick now);
  /// All-bank refresh of the round-robin rank, issued at tick `now`.
  void do_refresh_at(DramTick now);
  /// Whether `e`'s row is the open row of its bank (its next command is a
  /// RD/WR rather than a PRE or an ACT).
  [[nodiscard]] bool row_hit(const Entry& e) const {
    return bank_of(e.coord).open_row() == e.coord.row;
  }
  /// Earliest tick at which the next command for `e` can issue: a RD/WR if
  /// its row is open, a PRE if another row is open, an ACT (tRRD, tFAW and
  /// the rank's refresh window included) if the bank is closed. Bank, rank
  /// and bus state change only when a command issues or a refresh starts,
  /// so until then `e` is ready exactly when now >= ready_at(e). Both
  /// scheduler passes test readiness through this one function.
  [[nodiscard]] DramTick ready_at(const Entry& e, bool is_write) const;
  /// Issues at most one command from `q` and returns whether it did. When
  /// it issues nothing it has evaluated every entry, and `next_ready` is
  /// lowered to the earliest ready_at among them.
  bool schedule_from(std::vector<Entry>& q, bool is_write, DramTick now,
                     DramTick& next_ready);
  void issue_data(Entry& e, bool is_write, DramTick now);

  const DramConfig cfg_;
  const DramTiming timing_;
  const AddressMap map_;
  const std::uint32_t channel_id_;

  std::vector<Bank> banks_;
  std::vector<BankGroupState> bankgroups_;
  std::vector<RankState> ranks_;
  ChannelBusState bus_;

  std::vector<Entry> read_q_;
  std::vector<Entry> write_q_;
  // Reads awaiting their fixed data latency. One data command issues per
  // tick and the latency is constant, so finish ticks are monotonic:
  // delivery and next_read_event only ever look at the front.
  std::deque<DramCompletion> inflight_reads_;
  bool draining_writes_ = false;
  // After a tick that issued nothing, the earliest tick at which any
  // queued entry can issue; kNeverTick once the queues are empty and the
  // write-drain hysteresis is cleared. Zero after an enqueue, an issued
  // command or a refresh - the only events that change readiness or the
  // queue occupancy the hysteresis reads.
  DramTick quiet_until_ = kNeverTick;
  DramTick next_refresh_ = kNeverTick;  // kNeverTick without refresh
  std::uint32_t refresh_rank_rr_ = 0;

  Counters counters_;
};

}  // namespace llamcat
