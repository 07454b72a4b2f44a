// Full-system wiring: cores + L1s -> NoC -> LLC slices -> DRAM, plus the
// throttling controller sampling loop. One System runs one operator (or,
// through the admission hook, a stream of dynamically admitted operators)
// to completion, single-threaded and deterministic.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/bitset.hpp"
#include "common/config.hpp"
#include "core/throttle.hpp"
#include "dram/dram_system.hpp"
#include "llc/llc_slice.hpp"
#include "noc/network.hpp"
#include "sim/sim_stats.hpp"
#include "trace/tracegen.hpp"
#include "vcore/tb_scheduler.hpp"
#include "vcore/vector_core.hpp"

namespace llamcat {

class System : private IFlightObserver {
 public:
  /// `tagger` (optional, must outlive the System) enables per-request
  /// attribution of a fused multi-request source: LLC slices count their
  /// activity per owning request and collect_stats() emits one RequestSlice
  /// per request alongside the machine-wide totals.
  System(const SimConfig& cfg, const ITbSource& source,
         const IRequestTagger* tagger = nullptr);

  /// Admission callback for continuous batching: invoked once per cycle
  /// (first at cycle 0, before any work happens; afterwards at cycle c once
  /// every event of cycle c has settled). The hook may append work to the
  /// System's dynamic source and publish it with inject_work(). run()
  /// returns when the machine is drained and the hook's latest invocation
  /// admitted nothing - the caller decides whether that is the end of the
  /// stream or a segment boundary.
  using AdmissionHook = std::function<void(System&, Cycle)>;

  /// Runs to completion and returns the collected statistics. With an
  /// admission hook, "completion" means drained with nothing newly admitted
  /// (see AdmissionHook). Throws std::runtime_error if cfg.max_cycles is
  /// exceeded (deadlock guard).
  SimStats run(const AdmissionHook& admission = nullptr);

  /// Publishes thread blocks appended to the source since the last call:
  /// the scheduler deals them into its queues and every per-request
  /// tracking array (flight observation, core issue counters, LLC slice
  /// counters) grows to the new request population, and every sleeping
  /// core wakes. Returns the number of thread blocks injected.
  std::uint64_t inject_work();

  /// Single-step API for tests: one cycle, after which every sleeping
  /// component has settled its owed cycles, so the counters read through
  /// cores() and slices() are current.
  void step();
  [[nodiscard]] bool done() const;
  [[nodiscard]] Cycle now() const { return cycle_; }
  [[nodiscard]] SimStats collect_stats() const;

  // ---- event-driven skip-ahead ---------------------------------------------
  // SimConfig::fast_path switches it (skip-ahead over provably frozen
  // cycles plus awake sets: a frozen core or slice sleeps out of the step
  // loops and settles its owed cycles lazily); on by default, and
  // byte-identical stats either way.

  /// Admission hooks call this on every invocation to publish the earliest
  /// future cycle at which they need to act again (their next arrival or
  /// refetch landmark; kNeverCycle when none is pending). A hook that never
  /// publishes a hint keeps the hint at 0, which disables skipping entirely
  /// while that hook drives the run - hooks stay correct by default and
  /// opt in to skip-ahead by hinting.
  void set_wake_hint(Cycle cycle) { wake_hint_ = cycle; }

  // Introspection for tests.
  [[nodiscard]] const std::vector<std::unique_ptr<VectorCore>>& cores() const {
    return cores_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<LlcSlice>>& slices() const {
    return slices_;
  }
  [[nodiscard]] const DramSystem& dram() const { return dram_; }
  [[nodiscard]] const IThrottleController& throttle() const {
    return *throttle_;
  }
  [[nodiscard]] const TbScheduler& scheduler() const { return scheduler_; }

 private:
  /// One cycle: deliver NoC responses, tick the awake cores, inject core
  /// traffic, deliver slice requests, tick the awake slices, tick DRAM,
  /// sample throttling.
  void advance();
  void deliver_responses();
  void tick_cores();
  void inject_core_traffic();
  void deliver_slice_requests();
  void tick_slices();
  void sample_throttling();
  /// Sum of per-core progress counters across all slice arbiters, written
  /// into `out` (reused scratch; resized to num_cores).
  void aggregate_progress(std::vector<std::uint64_t>& out) const;

  // Per-request first-dispatch / last-completion observation: event
  // callbacks from the scheduler (registered only on tagged runs).
  void on_first_dispatch(std::uint32_t req_index) override;
  void on_request_complete(std::uint32_t req_index) override;

  // ---- awake set and lazy settlement -----------------------------------------
  // A unit is a core index, or num_cores + a slice index.
  [[nodiscard]] std::uint32_t slice_unit(std::uint32_t s) const {
    return static_cast<std::uint32_t>(cores_.size()) + s;
  }
  /// Puts `unit` (component `c`) to sleep from the next cycle on if its
  /// wait profile is not busy, with an alarm at the cycle it must tick
  /// again by itself. Returns whether it sleeps.
  template <class Component>
  bool try_sleep(std::uint32_t unit, Component& c);
  /// If `unit` sleeps, settles its owed cycles through `through` and
  /// returns it to the awake set: `through` = cycle_ - 1 when it must tick
  /// this cycle, cycle_ when this cycle already counted as frozen for it.
  void wake(std::uint32_t unit, Cycle through);
  /// Wakes the sleepers whose alarm is due this cycle.
  void ring_alarms();
  /// Earliest live alarm (kNeverCycle when none); drops stale ones.
  [[nodiscard]] Cycle next_alarm();
  /// Settles every sleeper through cycle_ (before counters are read).
  void settle_all();
  /// Re-files core `c` under the slice its head outgoing request targets.
  void track_outgoing(std::uint32_t c);
  /// The cores whose head outgoing request's slice has a credit, into
  /// `out`; returns whether there is any (`out` is left as it was when
  /// there is none).
  bool injectable(DynBitset& out) const;

  /// Earliest cycle > now() at which any component can make observable
  /// progress. Returns now()+1 ("no skip") the moment any component is
  /// busy. Every awake component it finds frozen goes to sleep, so a skip
  /// leaves no awake component behind.
  [[nodiscard]] Cycle next_wake(bool has_hook);
  /// Advances cycle_ across `cycles` frozen cycles: the sleepers owe them,
  /// and DRAM advances as it would step by step (its completion events are
  /// provably after the wake cycle).
  void fast_forward(Cycle cycles);

  SimConfig cfg_;
  TbScheduler scheduler_;
  SliceMap slice_map_;
  std::vector<std::unique_ptr<VectorCore>> cores_;
  std::vector<std::unique_ptr<LlcSlice>> slices_;
  Network net_;
  DramSystem dram_;
  std::unique_ptr<IThrottleController> throttle_;

  Cycle cycle_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<MemResponse> resp_scratch_;
  Cycle prev_stall_total_ = 0;
  std::uint64_t total_c_mem_ = 0;
  std::uint64_t total_c_idle_ = 0;

  // Skip-ahead state. wake_hint_ starts at 0 so a hook that never hints
  // forbids skipping; it is reset to 0 before every hook invocation.
  Cycle wake_hint_ = 0;

  // Awake set over units: the step loops visit only these. With the fast
  // path off nothing ever sleeps.
  DynBitset awake_;
  /// A sleeper's wake cycle. Alarms of sleepers woken early by an input are
  /// stale: a live one is still its unit's alarm_at_.
  struct Alarm {
    Cycle at;
    std::uint32_t unit;
    bool operator>(const Alarm& o) const { return at > o.at; }
  };
  std::priority_queue<Alarm, std::vector<Alarm>, std::greater<>> alarms_;
  std::vector<Cycle> alarm_at_;  // per unit; kNeverCycle when none is live

  // Injection index: each core's head outgoing request's slice (kNoSlice
  // when it has none), per slice the cores waiting on it and their count,
  // and the slices some core waits on.
  static constexpr std::uint32_t kNoSlice = ~std::uint32_t{0};
  std::vector<std::uint32_t> out_slice_;
  std::vector<DynBitset> waiting_;
  std::vector<std::uint32_t> n_waiting_;
  DynBitset waited_;
  DynBitset inject_scratch_;

  // Reusable sampling scratch (hoisted out of sample_throttling; same
  // pattern as resp_scratch_).
  std::vector<CoreSample> samples_scratch_;
  std::vector<std::optional<FirstTbReport>> first_tb_scratch_;
  GlobalSample global_scratch_;

  // Per-request flight tracking (indexed by the scheduler's dense request
  // index; empty when no tagger is attached).
  const IRequestTagger* tagger_ = nullptr;
  std::vector<bool> req_started_;
  std::vector<Cycle> req_first_dispatch_;
  std::vector<Cycle> req_last_complete_;
};

}  // namespace llamcat
