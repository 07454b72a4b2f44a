// One LLC slice and its arbiter (paper Fig 4). The slice owns:
//   request queue -> arbiter -> lookup pipeline (hit_latency)
//                                 -> MSHR probe stage (mshr_latency) -> DRAM
//   DRAM fill -> direct forward to requesters + response queue -> storage
// MSHR exhaustion (numEntry or numTarget) blocks the pipeline head, which
// backs up and stalls even cache hits behind it - the stall CAT minimizes.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "cache/bypass.hpp"
#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/sleeper.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/arbitration.hpp"
#include "dram/dram_system.hpp"

namespace llamcat {

/// Address -> (slice, local set). Slice bits are taken above the three
/// lowest set-index bits so the slice choice is decoupled from the DRAM
/// channel bits (which use the lowest line bits).
class SliceMap {
 public:
  explicit SliceMap(const LlcConfig& cfg);

  // Inlined: slice_of runs once per injected request and once per core in
  // every next_wake probe (hot per the self-benchmark profile).
  [[nodiscard]] std::uint32_t slice_of(Addr line_addr) const {
    const std::uint64_t gs = line_index(line_addr) & (total_sets_ - 1);
    return static_cast<std::uint32_t>((gs >> shift_) & (num_slices_ - 1));
  }
  [[nodiscard]] std::uint32_t local_set_of(Addr line_addr) const {
    const std::uint64_t gs = line_index(line_addr) & (total_sets_ - 1);
    const std::uint64_t low = gs & ((std::uint64_t{1} << shift_) - 1);
    const std::uint64_t high = gs >> (shift_ + slice_bits_);
    return static_cast<std::uint32_t>(low | (high << shift_));
  }
  [[nodiscard]] std::uint64_t total_sets() const { return total_sets_; }
  [[nodiscard]] std::uint64_t sets_per_slice() const {
    return total_sets_ / num_slices_;
  }

 private:
  std::uint32_t num_slices_;
  std::uint32_t slice_bits_;
  std::uint32_t set_bits_;
  std::uint64_t total_sets_;
  std::uint32_t shift_;  // low set bits kept inside the slice
};

/// `busy` = observable progress at cycle now+1. Otherwise the slice is
/// frozen until `next_event` (pipeline-head maturity / response release;
/// kNeverCycle when only ingress or a fill wakes it), and each frozen cycle
/// accrues exactly the recorded stall deltas.
struct SliceWaitProfile {
  bool busy = false;
  Cycle next_event = kNeverCycle;
  bool stall_target = false;         // numTarget exhaustion per cycle
  bool stall_entry = false;          // numEntry exhaustion per cycle
  bool lookup_backpressure = false;  // miss into a full probe stage
};

class LlcSlice : public Sleeper<LlcSlice, SliceWaitProfile> {
 public:
  LlcSlice(const LlcConfig& cfg, const ArbConfig& arb_cfg,
           std::uint32_t slice_id, std::uint32_t num_cores,
           std::uint64_t seed);

  // ---- ingress --------------------------------------------------------------
  [[nodiscard]] bool can_accept_request() const {
    return req_q_.size() < cfg_.req_q_size;
  }
  void push_request(const MemRequest& req, Cycle now);

  /// DRAM read completion for a line this slice requested.
  void on_dram_fill(Addr line_addr);

  /// Enables per-request attribution: lookups/hits/misses/MSHR merges and
  /// the DRAM traffic this slice originates are additionally counted per
  /// request, keyed by the owner of the accessed address (requests occupy
  /// disjoint address slots, so this equals the issuing TB's request tag).
  /// Pass nullptr to disable. The tagger must outlive the slice.
  void set_tagger(const IRequestTagger* tagger);

  /// Grows the per-request counter array to the tagger's current request
  /// count (mid-run admission through a dynamic source). Never shrinks.
  void sync_tagger_requests();

  // ---- per-cycle ------------------------------------------------------------
  void tick(Cycle now, DramSystem& dram);

  /// Appends load responses whose data_latency has elapsed by `now` to
  /// `out` (drained by the simulator into the NoC).
  void drain_responses(Cycle now, std::vector<MemResponse>& out);

  /// Hot-path counters (plain fields; converted to a StatSet on demand).
  struct Counters {
    std::uint64_t requests_in = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t mshr_hits = 0;     // merges into an existing entry
    std::uint64_t mshr_allocs = 0;   // new entries (DRAM reads issued)
    std::uint64_t fills = 0;
    std::uint64_t bypassed_fills = 0;  // fills the bypass manager rejected
    std::uint64_t responses_served = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t clean_evictions = 0;
    std::uint64_t stall_entry = 0;   // numEntry exhaustion cycles
    std::uint64_t stall_target = 0;  // numTarget exhaustion cycles
    std::uint64_t stall_dram = 0;    // DRAM queue backpressure cycles
    std::uint64_t fill_respq_stall = 0;
    std::uint64_t lookup_backpressure = 0;
  };

  /// Per-request share of this slice's activity (see set_tagger).
  struct ReqCounters {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mshr_hits = 0;
    std::uint64_t dram_reads = 0;   // MSHR allocations (reads issued)
    std::uint64_t dram_writes = 0;  // writebacks issued
  };

  // ---- skip-ahead and lazy settlement ---------------------------------------
  /// What the slice would do over the coming cycles if its inputs stay
  /// frozen (no new requests, no DRAM fills); the profile a sleeping slice
  /// owes per cycle (Sleeper). While asleep no out-response is ready, so
  /// drain_responses has nothing to do either.
  [[nodiscard]] SliceWaitProfile wait_profile(Cycle now) const;

  // ---- introspection ----------------------------------------------------------
  [[nodiscard]] bool drained() const;
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Indexed by dense request index; empty when no tagger is set.
  [[nodiscard]] const std::vector<ReqCounters>& request_counters() const {
    return by_req_;
  }
  [[nodiscard]] StatSet stats() const;
  [[nodiscard]] const Mshr& mshr() const { return mshr_; }
  [[nodiscard]] RequestArbiter& arbiter() { return arbiter_; }
  [[nodiscard]] const RequestArbiter& arbiter() const { return arbiter_; }
  [[nodiscard]] Cycle stall_cycles() const { return stall_cycles_; }
  [[nodiscard]] std::uint32_t slice_id() const { return slice_id_; }
  [[nodiscard]] const CacheArray& array() const { return array_; }
  [[nodiscard]] std::size_t req_q_size() const { return req_q_.size(); }
  [[nodiscard]] std::size_t resp_q_size() const { return resp_q_.size(); }
  [[nodiscard]] const BypassManager& bypass() const { return bypass_; }

 private:
  /// Ground-truth tag probe handed to the arbiter for ArbPolicy::kOracle.
  class TagOracle final : public ILookupOracle {
   public:
    TagOracle(const CacheArray& array, const SliceMap& map)
        : array_(array), map_(map) {}
    [[nodiscard]] bool is_cache_hit(Addr line_addr) const override {
      return array_.probe(map_.local_set_of(line_addr), line_addr);
    }

   private:
    const CacheArray& array_;
    const SliceMap& map_;
  };

  struct PipeEntry {
    MemRequest req;
    Cycle ready = 0;
  };
  struct RespEntry {
    Addr line_addr = 0;
    bool dirty = false;
  };
  struct OutResp {
    Cycle ready = 0;
    MemResponse resp;
    bool operator>(const OutResp& o) const { return ready > o.ready; }
  };

  friend class Sleeper<LlcSlice, SliceWaitProfile>;
  /// arbiter_.on_cycle is not replayed: it is a pure expiry that nothing
  /// reads until the wake tick runs it.
  void apply_owed(const SliceWaitProfile& p, std::uint64_t cycles);

  /// Per-request counters for the owner of `line_addr`, or nullptr when
  /// untagged (no tagger, or address outside every registered slot).
  [[nodiscard]] ReqCounters* req_counters_of(Addr line_addr);

  void process_fills(Cycle now);
  void drain_writebacks(DramSystem& dram);
  bool serve_response(Cycle now, DramSystem& dram);
  void serve_request(Cycle now);
  void advance_lookup(Cycle now);
  void advance_mshr_stage(Cycle now, DramSystem& dram);

  LlcConfig cfg_;
  std::uint32_t slice_id_;
  SliceMap map_;
  CacheArray array_;
  Mshr mshr_;
  RequestArbiter arbiter_;
  BypassManager bypass_;
  TagOracle oracle_;

  std::vector<QueuedRequest> req_q_;  // arrival order
  std::deque<PipeEntry> lookup_pipe_;
  std::deque<PipeEntry> mshr_pipe_;
  std::deque<Addr> pending_fills_;
  std::deque<RespEntry> resp_q_;
  std::deque<Addr> wb_buffer_;  // dirty victims awaiting DRAM write slots
  std::priority_queue<OutResp, std::vector<OutResp>, std::greater<>>
      out_resp_;
  std::vector<MshrTarget> fill_targets_;  // process_fills scratch

  bool stalled_this_cycle_ = false;
  bool mshr_resource_stall_ = false;  // freezes lookup+arbiter this cycle
  Cycle stall_cycles_ = 0;
  Counters counters_;
  const IRequestTagger* tagger_ = nullptr;
  std::vector<ReqCounters> by_req_;
};

}  // namespace llamcat
