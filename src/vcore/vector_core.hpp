// In-order vector core with multiple instruction windows (paper §3.1/§5):
// each window holds one thread block; the core issues from the active window
// and switches on any blockage to hide memory latency. Throttling caps the
// number of concurrently active windows (max_tb).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "cache/l1_cache.hpp"
#include "common/config.hpp"
#include "common/samples.hpp"
#include "common/sleeper.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "trace/tracegen.hpp"
#include "vcore/tb_scheduler.hpp"

namespace llamcat {

/// `busy` means the core makes observable progress at cycle now+1.
/// Otherwise it is frozen until `next_event` (earliest finite head-slot
/// completion; kNeverCycle when it can only be woken externally), and each
/// frozen cycle accrues exactly the recorded per-cycle deltas.
struct CoreWaitProfile {
  bool busy = false;
  Cycle next_event = kNeverCycle;
  bool idle = false;                 // ++c_idle_ per frozen cycle
  bool mem_block = false;            // ++c_mem_/++c_mem_abs_ per frozen cycle
  std::uint32_t blocked_loads = 0;   // l1 load_blocked per frozen cycle
};

class VectorCore : public Sleeper<VectorCore, CoreWaitProfile> {
 public:
  VectorCore(const CoreConfig& cfg, const L1Config& l1cfg, CoreId id,
             std::uint64_t seed);

  void bind(TbScheduler* scheduler) {
    scheduler_ = scheduler;
    issued_by_req_.assign(scheduler->num_requests(), 0);
  }

  /// Grows the per-request issue counters to `n` requests (mid-run
  /// admission of new requests through a dynamic source). Never shrinks.
  void sync_requests(std::uint32_t n) {
    if (issued_by_req_.size() < n) issued_by_req_.resize(n, 0);
  }

  /// LLC load data arriving through the NoC: fills L1 and wakes waiters.
  void on_load_fill(Addr line_addr);

  /// One core cycle: retire -> fetch TB -> issue (<= issue_width). Returns
  /// true when the tick issued nothing: only then can the core be frozen
  /// (see wait_profile).
  bool tick(Cycle now);

  // -- outgoing traffic (drained by the simulator under NoC credits) --------
  struct Outgoing {
    Addr line_addr = 0;
    AccessType type = AccessType::kLoad;
  };
  /// Head outgoing request: L1 load misses first, then posted stores.
  /// Inlined: polled for every core on every stepped cycle (hot per the
  /// self-benchmark profile).
  [[nodiscard]] std::optional<Outgoing> peek_outgoing() const {
    if (auto line = l1_.peek_outbox()) {
      return Outgoing{*line, AccessType::kLoad};
    }
    if (!store_buffer_.empty()) {
      return Outgoing{store_buffer_.front(), AccessType::kStore};
    }
    return std::nullopt;
  }
  void pop_outgoing();

  // -- throttling ------------------------------------------------------------
  /// Clamps `n` to [1, num_inst_windows]. A sleeping core's profile reads
  /// the cap only through `active < max_tb`, so only a changed cap can
  /// wake it.
  void set_max_tb(std::uint32_t n);
  [[nodiscard]] std::uint32_t max_tb() const { return max_tb_; }

  /// C_mem / C_idle accumulated since the previous call (and resets them).
  CoreSample take_sample();
  /// Available once the core's first thread block has completed.
  [[nodiscard]] const std::optional<FirstTbReport>& first_tb_report() const {
    return first_tb_report_;
  }

  // -- skip-ahead and lazy settlement -----------------------------------------
  /// What the core would do over the coming cycles if its inputs stay
  /// frozen (no fills, no scheduler changes, no store-buffer drain, the
  /// same max_tb); the profile a sleeping core owes per cycle (Sleeper).
  /// A non-issuing tick rotates active_ptr_ num_inst_windows times, back
  /// to where it started, so no state beyond the profile's deltas moves.
  [[nodiscard]] CoreWaitProfile wait_profile(Cycle now) const;

  // -- state/introspection ----------------------------------------------------
  /// True when the core holds no work at all (safe to end simulation).
  [[nodiscard]] bool fully_idle() const;
  [[nodiscard]] std::uint32_t active_windows() const { return active_count_; }
  [[nodiscard]] std::uint64_t instructions_issued() const { return issued_; }
  /// Issued instructions split by the dense request index of the issuing
  /// thread block (single-request sources put everything in element 0).
  [[nodiscard]] const std::vector<std::uint64_t>& issued_by_request() const {
    return issued_by_req_;
  }
  [[nodiscard]] std::uint64_t tbs_completed() const { return tbs_completed_; }
  [[nodiscard]] StatSet l1_stats() const { return l1_.stats(); }
  [[nodiscard]] const L1Cache& l1() const { return l1_; }
  [[nodiscard]] CoreId id() const { return id_; }

 private:
  struct Slot {
    Instr::Kind kind = Instr::Kind::kCompute;
    Cycle ready = kNeverCycle;  // completion cycle; kNever = pending load
  };

  /// Fixed-capacity FIFO of in-flight slots. A ring over a pre-sized array
  /// beats std::deque here (hot per the self-benchmark profile), and slot
  /// addresses stay stable while live - required by the L1 load-tag scheme
  /// (a live slot is never moved; its cell is reused only after pop).
  class SlotRing {
   public:
    void init(std::uint32_t capacity) { buf_.assign(capacity, Slot{}); }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::uint32_t size() const { return count_; }
    [[nodiscard]] Slot& front() { return buf_[head_]; }
    [[nodiscard]] const Slot& front() const { return buf_[head_]; }
    /// Precondition: size() < capacity (the issue path checks depth first).
    Slot& push_back(const Slot& s) {
      std::uint32_t i = head_ + count_;
      if (i >= buf_.size()) i -= static_cast<std::uint32_t>(buf_.size());
      buf_[i] = s;
      ++count_;
      return buf_[i];
    }
    void pop_front() {
      if (++head_ >= buf_.size()) head_ = 0;
      --count_;
    }
    void pop_back() { --count_; }
    void clear() {
      head_ = 0;
      count_ = 0;
    }

   private:
    std::vector<Slot> buf_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
  };

  struct Window {
    bool has_tb = false;
    std::uint64_t tb_idx = 0;
    std::uint32_t req_idx = 0;  // dense request index, cached at fetch
    std::uint32_t next_instr = 0;
    std::uint32_t instr_count = 0;
    SlotRing slots;
  };

  enum class BlockReason : std::uint8_t { kNone, kMemory, kCompute, kNoWork };

  friend class Sleeper<VectorCore, CoreWaitProfile>;
  void apply_owed(const CoreWaitProfile& p, std::uint64_t cycles);

  void retire(Cycle now);
  void fetch_tb(Cycle now);
  /// Attempts to issue one instruction from window `w`.
  BlockReason try_issue(Window& w, Cycle now);
  /// C_mem accumulated since the core's first TB started (LCS observation).
  [[nodiscard]] Cycle c_mem_total_marker(Cycle now) const;

  CoreConfig cfg_;
  CoreId id_;
  L1Cache l1_;
  std::vector<Window> windows_;
  std::uint32_t active_ptr_ = 0;   // current issue window
  std::uint32_t active_count_ = 0;  // windows with has_tb (O(1) active_windows)
  std::uint32_t max_tb_;
  TbScheduler* scheduler_ = nullptr;

  std::deque<Addr> store_buffer_;
  // Pending (miss-waiting) loads. The L1 carries each waiting slot's
  // address as its opaque load tag, so a fill wakes its waiters without
  // any id lookup; this counter exists only for fully_idle().
  std::uint64_t pending_loads_ = 0;
  std::vector<L1Cache::LoadTag> fill_waiters_;  // scratch for l1_.on_fill

  // sampling
  Cycle c_mem_ = 0;      // reset by take_sample()
  Cycle c_idle_ = 0;     // reset by take_sample()
  Cycle c_mem_abs_ = 0;  // never reset (first-TB observation)
  std::uint64_t issued_ = 0;
  std::vector<std::uint64_t> issued_by_req_;
  std::uint64_t tbs_completed_ = 0;

  // first-TB observation for LCS
  bool first_tb_seen_ = false;
  std::uint64_t first_tb_idx_ = 0;
  Cycle first_tb_start_ = 0;
  Cycle first_tb_cmem_at_start_ = 0;
  std::optional<FirstTbReport> first_tb_report_;
};

}  // namespace llamcat
