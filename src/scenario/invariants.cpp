#include "scenario/invariants.hpp"

#include <algorithm>
#include <sstream>
#include <utility>


namespace llamcat::scenario {

// ---------------------------------------------------------------------------
// ServingAuditor: in-engine KV byte ledger
// ---------------------------------------------------------------------------

namespace {

std::string fmt_event(const char* event, std::size_t i) {
  std::ostringstream os;
  os << event << "(request " << i << ")";
  return os.str();
}

}  // namespace

ServingAuditor::ServingAuditor(std::uint64_t budget_bytes,
                               std::uint64_t block_bytes, bool paged,
                               std::vector<KvBlockPool::RequestLayout> layouts)
    : budget_(budget_bytes),
      block_bytes_(block_bytes),
      paged_(paged),
      layouts_(std::move(layouts)),
      admitted_(layouts_.size(), false),
      finished_(layouts_.size(), false),
      released_(layouts_.size(), false),
      private_swapped_blk_(layouts_.size(), 0) {
  if (block_bytes_ == 0) {
    throw std::invalid_argument("ServingAuditor: block size must be positive");
  }
}

std::uint64_t ServingAuditor::shared_blocks(std::size_t i) const {
  if (layouts_[i].prefix_group == kNoPrefixGroup) return 0;
  return layouts_[i].prefix_bytes / block_bytes_;
}

std::uint64_t ServingAuditor::private_whole_blocks(std::size_t i) const {
  return layouts_[i].footprint_bytes / block_bytes_ - shared_blocks(i);
}

std::uint64_t ServingAuditor::private_bytes(std::size_t i) const {
  return layouts_[i].footprint_bytes - shared_blocks(i) * block_bytes_;
}

std::uint64_t ServingAuditor::shadow_key(std::size_t i,
                                         std::uint64_t block) const {
  return (static_cast<std::uint64_t>(layouts_[i].prefix_group) << 32) | block;
}

void ServingAuditor::check_clock(const char* event, std::size_t i, Cycle now) {
  if (now < last_event_) {
    throw InvariantViolation(fmt_event(event, i) + " at cycle " +
                             std::to_string(now) +
                             " moves the serving clock backwards (last event "
                             "was at " +
                             std::to_string(last_event_) + ")");
  }
  last_event_ = now;
}

void ServingAuditor::check_resident(const char* event, std::size_t i,
                                    std::uint64_t engine_resident) const {
  if (engine_resident != resident_) {
    throw InvariantViolation(
        fmt_event(event, i) + ": engine resident-bytes ledger (" +
        std::to_string(engine_resident) + ") diverged from the audited sum " +
        "of unique charged blocks (" + std::to_string(resident_) + ")");
  }
  if (budget_ != 0 && resident_ > budget_) {
    throw InvariantViolation(fmt_event(event, i) + ": resident bytes " +
                             std::to_string(resident_) + " exceed the " +
                             std::to_string(budget_) + "-byte KV budget");
  }
}

void ServingAuditor::on_admit(std::size_t i, Cycle now,
                              std::uint64_t engine_resident) {
  check_clock("admit", i, now);
  if (admitted_[i]) {
    throw InvariantViolation(fmt_event("admit", i) +
                             ": request was already first-admitted (resumes "
                             "must report on_resume)");
  }
  admitted_[i] = true;
  // Replay the block-level admission: every unique block charges once. The
  // expected charge comes from the shadow map alone, so an engine / pool
  // disagreement about what was already resident surfaces as a ledger
  // divergence on this exact event.
  std::uint64_t charge = private_bytes(i);
  for (std::uint64_t b = 0; b < shared_blocks(i); ++b) {
    auto [it, inserted] = blocks_.try_emplace(shadow_key(i, b));
    ShadowBlock& e = it->second;
    if (inserted) {
      charge += block_bytes_;
    } else if (!e.resident) {
      e.resident = true;  // host-tier reuse: refetched and re-charged
      charge += block_bytes_;
    }
    ++e.pins;
    ++e.holders;
  }
  resident_ += charge;
  check_resident("admit", i, engine_resident);
}

void ServingAuditor::on_resume(std::size_t i, std::uint64_t refetched_bytes,
                               Cycle now, std::uint64_t engine_resident) {
  check_clock("resume", i, now);
  if (!admitted_[i] || finished_[i]) {
    throw InvariantViolation(fmt_event("resume", i) +
                             ": only a previously admitted, unfinished "
                             "request can resume");
  }
  // Expected refetch = the request's private host-tier blocks plus its
  // shared blocks nobody re-pinned since the eviction (a peer's admission
  // may have brought some back - those re-pin for free).
  std::uint64_t expect = 0;
  if (released_[i]) {
    expect = private_swapped_blk_[i] * block_bytes_;
    private_swapped_blk_[i] = 0;
    for (std::uint64_t b = 0; b < shared_blocks(i); ++b) {
      ShadowBlock& e = blocks_.at(shadow_key(i, b));
      if (!e.resident) {
        e.resident = true;
        expect += block_bytes_;
      }
      ++e.pins;
    }
    released_[i] = false;
  }
  if (refetched_bytes != expect) {
    throw InvariantViolation(
        fmt_event("resume", i) + ": refetched " +
        std::to_string(refetched_bytes) + " bytes but the shadow block " +
        "map expected " + std::to_string(expect) +
        " (private host blocks + shared blocks no peer re-pinned)");
  }
  resident_ += expect;
  check_resident("resume", i, engine_resident);
}

void ServingAuditor::on_evict(std::size_t i, std::uint64_t freed_bytes,
                              Cycle now, std::uint64_t engine_resident) {
  check_clock("evict", i, now);
  if (!admitted_[i] || finished_[i]) {
    throw InvariantViolation(fmt_event("evict", i) +
                             ": only a running (admitted, unfinished) "
                             "request can be preempted");
  }
  if (released_[i]) {
    throw InvariantViolation(fmt_event("evict", i) +
                             ": request was already evicted and has not "
                             "resumed");
  }
  std::uint64_t expect = 0;
  if (paged_) {
    // Replay the ref-counted release: a shared block only moves to the host
    // tier when its *last* pinner leaves; a block another admitted request
    // still pins stays resident and frees nothing. Every private whole
    // block moves; a partial tail block never does.
    for (std::uint64_t b = 0; b < shared_blocks(i); ++b) {
      ShadowBlock& e = blocks_.at(shadow_key(i, b));
      if (e.pins == 0 || !e.resident) {
        throw InvariantViolation(
            fmt_event("evict", i) + ": shadow block " + std::to_string(b) +
            " has corrupt refcounts (an active request must pin a "
            "resident block)");
      }
      --e.pins;
      if (e.pins == 0) {
        e.resident = false;
        expect += block_bytes_;
      }
    }
    expect += private_whole_blocks(i) * block_bytes_;
    private_swapped_blk_[i] = private_whole_blocks(i);
    released_[i] = true;
  }
  // !paged_: resident preemption - pins survive, nothing frees.
  if (freed_bytes != expect) {
    throw InvariantViolation(
        fmt_event("evict", i) + ": freed " + std::to_string(freed_bytes) +
        " bytes but the shadow block map expected " + std::to_string(expect) +
        " (private whole blocks + shared blocks whose last pinner left)");
  }
  resident_ -= expect;
  check_resident("evict", i, engine_resident);
}

void ServingAuditor::on_finish(std::size_t i, Cycle now,
                               std::uint64_t engine_resident) {
  check_clock("finish", i, now);
  if (!admitted_[i] || finished_[i]) {
    throw InvariantViolation(fmt_event("finish", i) +
                             ": request finished twice or without admission");
  }
  if (released_[i]) {
    throw InvariantViolation(fmt_event("finish", i) +
                             ": request finished while evicted - it must "
                             "resume (and refetch) before finishing");
  }
  // Drop the holder refs: a shared block frees only when its *last* holder
  // finishes. pins <= holders always, and an unreleased finisher still
  // pins, so a block reaching holders == 0 is resident by construction -
  // its bytes leave the ledger here.
  std::uint64_t freed = private_bytes(i);
  for (std::uint64_t b = 0; b < shared_blocks(i); ++b) {
    auto it = blocks_.find(shadow_key(i, b));
    if (it == blocks_.end() || it->second.pins == 0 ||
        it->second.holders == 0 || !it->second.resident) {
      throw InvariantViolation(
          fmt_event("finish", i) + ": shadow block " + std::to_string(b) +
          " has corrupt refcounts (a finishing request must pin a "
          "resident block)");
    }
    --it->second.pins;
    --it->second.holders;
    if (it->second.holders == 0) {
      blocks_.erase(it);
      freed += block_bytes_;
    }
  }
  finished_[i] = true;
  resident_ -= freed;
  check_resident("finish", i, engine_resident);
}

void ServingAuditor::on_pass_end() const {
  for (std::size_t i = 0; i < layouts_.size(); ++i) {
    if (!finished_[i]) {
      throw InvariantViolation("pass ended with request " + std::to_string(i) +
                               " unfinished (dropped request)");
    }
  }
  if (resident_ != 0) {
    throw InvariantViolation("pass ended with " + std::to_string(resident_) +
                             " resident bytes still pinned");
  }
  if (!blocks_.empty()) {
    throw InvariantViolation(
        "pass ended with " + std::to_string(blocks_.size()) +
        " shared blocks still alive - every refcount must drain to zero");
  }
}

// ---------------------------------------------------------------------------
// audit_batch: post-run contract
// ---------------------------------------------------------------------------

std::string AuditReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "\n";
    out += v;
  }
  return out;
}

namespace {

class Checker {
 public:
  explicit Checker(AuditReport& report) : report_(report) {}

  /// check(cond, parts...): cond false appends one violation line.
  template <typename... Parts>
  void operator()(bool ok, const Parts&... parts) {
    if (ok) return;
    std::ostringstream os;
    (os << ... << parts);
    report_.violations.push_back(os.str());
  }

 private:
  AuditReport& report_;
};

}  // namespace

AuditReport audit_batch(const RequestBatch& batch,
                        const DecodePassConfig& pass_cfg,
                        const BatchStats& stats) {
  AuditReport report;
  Checker check(report);
  const std::vector<RequestSpec>& reqs = batch.requests();

  check(stats.per_request.size() == reqs.size(), "per_request has ",
        stats.per_request.size(), " rows for a batch of ", reqs.size());
  if (stats.per_request.size() != reqs.size()) return report;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    check(stats.per_request[i].id == reqs[i].id, "per_request[", i,
          "] id is ", stats.per_request[i].id, ", expected ", reqs[i].id,
          " (rows must keep batch order)");
  }

  // -- attribution conservation (shared-System modes attribute exactly) -----
  if (stats.mode != ExecutionMode::kIndependent) {
    std::uint64_t tbs = 0, instrs = 0, reads = 0, writes = 0;
    for (const RequestStats& r : stats.per_request) {
      tbs += r.slice.thread_blocks;
      instrs += r.slice.instructions;
      reads += r.slice.dram_reads;
      writes += r.slice.dram_writes;
      check(r.slice.llc_hits + r.slice.llc_misses == r.slice.llc_lookups,
            "request ", r.id, ": slice hits (", r.slice.llc_hits,
            ") + misses (", r.slice.llc_misses, ") != lookups (",
            r.slice.llc_lookups, ")");
    }
    check(tbs == stats.total.thread_blocks, "per-request thread blocks sum to ",
          tbs, " but the batch total is ", stats.total.thread_blocks);
    check(instrs == stats.total.instructions,
          "per-request instructions sum to ", instrs,
          " but the batch total is ", stats.total.instructions);
    check(reads == stats.total.dram_reads, "per-request DRAM reads sum to ",
          reads, " but the batch total is ", stats.total.dram_reads);
    check(writes == stats.total.dram_writes, "per-request DRAM writes sum to ",
          writes, " but the batch total is ", stats.total.dram_writes);
  }

  // -- barrier modes: landmark sentinels, no stream state -------------------
  if (stats.mode != ExecutionMode::kContinuous) {
    for (const RequestStats& r : stats.per_request) {
      check(!r.streamed, "request ", r.id,
            ": barrier-mode row claims stream landmarks");
      check(r.latency() == kNeverCycle && r.admission_wait() == kNeverCycle,
            "request ", r.id,
            ": barrier-mode latency/wait must be the kNeverCycle sentinel");
      check(r.preemptions == 0 && r.queued_cycles == 0, "request ", r.id,
            ": barrier modes have no serving queue");
      check(r.stats.cycles > 0, "request ", r.id, ": zero-cycle request");
    }
    check(stats.latency_percentile(99.0) == kNeverCycle,
          "barrier-mode latency percentile must be the kNeverCycle sentinel");
    check(stats.makespan == stats.total.cycles,
          "barrier-mode makespan (", stats.makespan,
          ") != sequential-equivalent cycles (", stats.total.cycles, ")");
    check(!stats.paged && stats.total_swapped_blocks() == 0,
          "barrier modes can never page");
    check(!stats.shared, "barrier modes can never share KV");
    return report;
  }

  // -- continuous: no drop + monotone landmark chain ------------------------
  const ServingConfig& serving = pass_cfg.serving;
  bool any_group = false;
  if (serving.kv_share) {
    for (const RequestSpec& r : reqs) {
      if (r.prefix_group != kNoPrefixGroup) any_group = true;
    }
  }
  const std::uint64_t share_block =
      serving.kv_block_bytes != 0 ? serving.kv_block_bytes : kLineBytes;
  std::uint64_t sum_refetch_bytes = 0, sum_refetch_cycles = 0;
  std::uint64_t sum_hit_blocks = 0, sum_hit_bytes = 0;
  Cycle max_finish = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const RequestStats& r = stats.per_request[i];
    check(r.streamed, "request ", r.id, ": continuous row not streamed");
    check(r.finish_cycle > 0, "request ", r.id,
          ": never finished (dropped request)");
    check(r.arrival_cycle == reqs[i].arrival_cycle, "request ", r.id,
          ": arrival landmark ", r.arrival_cycle, " != spec arrival ",
          reqs[i].arrival_cycle);
    check(r.admit_cycle >= r.arrival_cycle, "request ", r.id, ": admitted (",
          r.admit_cycle, ") before arrival (", r.arrival_cycle, ")");
    check(r.slice.first_dispatch_cycle > 0, "request ", r.id,
          ": no operator was ever dispatched");
    check(r.slice.first_dispatch_cycle >= r.admit_cycle, "request ", r.id,
          ": first dispatch (", r.slice.first_dispatch_cycle,
          ") before admission (", r.admit_cycle, ")");
    check(r.slice.last_complete_cycle >= r.slice.first_dispatch_cycle,
          "request ", r.id, ": last completion (", r.slice.last_complete_cycle,
          ") before first dispatch (", r.slice.first_dispatch_cycle, ")");
    check(r.finish_cycle >= r.slice.last_complete_cycle, "request ", r.id,
          ": finish (", r.finish_cycle, ") before last completion (",
          r.slice.last_complete_cycle, ")");
    max_finish = std::max(max_finish, r.finish_cycle);

    // -- step-finish landmarks (the TTFT/TBT clock) --------------------------
    check(r.step_finish_cycles.size() == r.decode_steps, "request ", r.id,
          ": recorded ", r.step_finish_cycles.size(),
          " step-finish landmarks for ", r.decode_steps, " decode steps");
    Cycle prev_step = r.slice.first_dispatch_cycle;
    for (std::size_t k = 0; k < r.step_finish_cycles.size(); ++k) {
      check(r.step_finish_cycles[k] >= prev_step, "request ", r.id,
            ": step ", k, " finished at ", r.step_finish_cycles[k],
            ", before the previous landmark (", prev_step, ")");
      prev_step = r.step_finish_cycles[k];
    }
    if (!r.step_finish_cycles.empty()) {
      check(r.step_finish_cycles.back() == r.finish_cycle, "request ", r.id,
            ": last step finished at ", r.step_finish_cycles.back(),
            " but the request finished at ", r.finish_cycle);
    }

    // -- queue accounting --------------------------------------------------
    const Cycle wait = r.admit_cycle - r.arrival_cycle;
    check(r.queued_cycles >= wait, "request ", r.id, ": queued cycles (",
          r.queued_cycles, ") below the admission wait (", wait, ")");
    if (r.preemptions == 0) {
      check(r.queued_cycles == wait, "request ", r.id,
            ": never preempted, so queued cycles (", r.queued_cycles,
            ") must equal the admission wait (", wait, ")");
    }
    if (serving.unconditional()) {
      check(r.admit_cycle == r.arrival_cycle && r.queued_cycles == 0,
            "request ", r.id,
            ": policy none must admit at arrival with zero queue wait");
    }
    if (!serving.preempt) {
      check(r.preemptions == 0, "request ", r.id,
            ": preempted with preemption disabled");
    }

    // -- prefix-share counters ---------------------------------------------
    sum_hit_blocks += r.prefix_hit_blocks;
    sum_hit_bytes += r.prefix_hit_bytes;
    if (!serving.kv_share) {
      check(r.prefix_hit_blocks == 0 && r.prefix_hit_bytes == 0, "request ",
            r.id, ": prefix-hit counters set with kv_share off");
    }

    // -- paged-KV ledger closure -------------------------------------------
    sum_refetch_bytes += r.refetch_bytes;
    sum_refetch_cycles += r.refetch_cycles;
    if (serving.paged()) {
      KvBlockPoolConfig pool_cfg;
      pool_cfg.block_bytes = share_block;
      pool_cfg.refetch_cost = serving.refetch_cost;
      if (serving.kv_share && any_group) {
        // A peer's admission can refetch a shared host block, so per-request
        // closure does not hold under sharing - only block granularity does
        // (the batch-level closure is checked after the loop).
        check(r.refetch_bytes % pool_cfg.block_bytes == 0, "request ", r.id,
              ": refetch bytes (", r.refetch_bytes,
              ") are not a multiple of the ", pool_cfg.block_bytes,
              "-byte block");
      } else {
        check(r.refetch_bytes == r.swapped_blocks * pool_cfg.block_bytes,
              "request ", r.id, ": cumulative refetch bytes (",
              r.refetch_bytes, ") do not close the swap ledger (",
              r.swapped_blocks, " blocks x ", pool_cfg.block_bytes,
              " B) - a request must end fully resident");
        check(r.refetch_cycles ==
                  r.swapped_blocks * pool_cfg.cycles_per_block(),
              "request ", r.id, ": refetch cycles (", r.refetch_cycles,
              ") != swapped blocks (", r.swapped_blocks, ") x link price (",
              pool_cfg.cycles_per_block(), ")");
      }
    } else {
      check(r.swapped_blocks == 0 && r.refetch_bytes == 0 &&
                r.refetch_cycles == 0,
            "request ", r.id, ": paging counters set in a non-paged run");
    }
  }
  check(stats.paged == serving.paged(), "paged flag (", stats.paged,
        ") disagrees with the serving config (", serving.paged(), ")");
  check(stats.shared == serving.kv_share, "shared flag (", stats.shared,
        ") disagrees with the serving config (", serving.kv_share, ")");

  // -- shared-KV accounting (batch-level) -----------------------------------
  if (serving.paged() && serving.kv_share && any_group) {
    KvBlockPoolConfig pool_cfg;
    pool_cfg.block_bytes = share_block;
    pool_cfg.refetch_cost = serving.refetch_cost;
    // Every host-tier block is eventually refetched exactly once (a finish
    // requires full residency and no request is dropped), so the swap
    // ledger closes at batch scope even though peers refetch for each other.
    check(sum_refetch_bytes == stats.total_swapped_blocks() * share_block,
          "batch refetch bytes (", sum_refetch_bytes,
          ") do not close the batch swap ledger (",
          stats.total_swapped_blocks(), " blocks x ", share_block, " B)");
    check(sum_refetch_cycles ==
              stats.total_swapped_blocks() * pool_cfg.cycles_per_block(),
          "batch refetch cycles (", sum_refetch_cycles,
          ") != swapped blocks (", stats.total_swapped_blocks(),
          ") x link price (", pool_cfg.cycles_per_block(), ")");
  }
  if (!stats.shared) {
    check(stats.kv_block_lookups == 0 && stats.kv_block_hits == 0 &&
              stats.kv_shared_bytes == 0 && stats.kv_charged_bytes == 0 &&
              stats.kv_logical_bytes == 0,
          "share counters set with kv_share off");
  } else {
    check(stats.kv_block_hits <= stats.kv_block_lookups, "block hits (",
          stats.kv_block_hits, ") exceed lookups (", stats.kv_block_lookups,
          ")");
    check(stats.kv_shared_bytes == stats.kv_block_hits * share_block,
          "shared bytes (", stats.kv_shared_bytes, ") != block hits (",
          stats.kv_block_hits, ") x block size (", share_block, ")");
    check(stats.kv_charged_bytes ==
              stats.kv_logical_bytes - stats.kv_shared_bytes,
          "charged bytes (", stats.kv_charged_bytes,
          ") != logical footprint (", stats.kv_logical_bytes,
          ") minus deduped bytes (", stats.kv_shared_bytes, ")");
    check(stats.kv_logical_bytes ==
              batch.total_peak_kv_bytes(pass_cfg.num_layers),
          "logical KV bytes (", stats.kv_logical_bytes,
          ") != the batch's total peak footprint (",
          batch.total_peak_kv_bytes(pass_cfg.num_layers), ")");
    check(sum_hit_bytes == stats.kv_shared_bytes,
          "per-request prefix-hit bytes sum to ", sum_hit_bytes,
          " but the batch deduped ", stats.kv_shared_bytes);
    check(sum_hit_blocks == stats.kv_block_hits,
          "per-request prefix-hit blocks sum to ", sum_hit_blocks,
          " but the batch counted ", stats.kv_block_hits, " hits");
    if (!any_group) {
      check(stats.kv_block_lookups == 0,
            "block lookups (", stats.kv_block_lookups,
            ") in a batch with no prefix groups");
    }
  }
  check(stats.makespan >= max_finish, "makespan (", stats.makespan,
        ") before the last finish (", max_finish, ")");
  check(stats.makespan >= stats.total.cycles, "makespan (", stats.makespan,
        ") below the machine-active cycle count (", stats.total.cycles, ")");
  return report;
}

SloReport slo_accounting(const BatchStats& stats, Cycle slo_ttft_cycles) {
  SloReport out;
  for (const RequestStats& r : stats.per_request) {
    if (r.finish_cycle > 0) ++out.finished;
    // kNeverCycle (a non-streamed or landmark-corrupt row) is > any SLO, so
    // a garbage row lands in `violated` and the audit's partition check
    // still balances against `finished` - it cannot vanish.
    if (r.ttft() <= slo_ttft_cycles) {
      ++out.attained;
      out.goodput_tokens += r.decode_steps;
    } else {
      ++out.violated;
    }
  }
  return out;
}

AuditReport audit_open_loop(const std::vector<RequestSpec>& requests,
                            const BatchStats& stats, Cycle slo_ttft_cycles) {
  AuditReport report;
  Checker check(report);

  check(stats.mode == ExecutionMode::kContinuous,
        "open-loop contract applies to kContinuous runs only (mode is ",
        static_cast<int>(stats.mode), ")");
  check(stats.per_request.size() == requests.size(), "per_request has ",
        stats.per_request.size(), " rows for a workload of ",
        requests.size());
  if (stats.mode != ExecutionMode::kContinuous ||
      stats.per_request.size() != requests.size()) {
    return report;
  }

  // 5. The source emits in arrival order.
  for (std::size_t i = 1; i < requests.size(); ++i) {
    check(requests[i].arrival_cycle >= requests[i - 1].arrival_cycle,
          "request ", requests[i].id, " arrives at ",
          requests[i].arrival_cycle, ", before its predecessor (",
          requests[i - 1].arrival_cycle,
          ") - an open-loop source emits in arrival order");
  }

  // 6. TTFT landmarks well-formed and monotone per request.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestStats& r = stats.per_request[i];
    check(r.admit_cycle >= requests[i].arrival_cycle, "request ", r.id,
          ": admitted (", r.admit_cycle, ") before arrival (",
          requests[i].arrival_cycle, ")");
    check(r.ttft() != kNeverCycle, "request ", r.id,
          ": TTFT is the kNeverCycle sentinel in a continuous run");
    check(r.slice.first_dispatch_cycle >= requests[i].arrival_cycle,
          "request ", r.id, ": first dispatch (",
          r.slice.first_dispatch_cycle, ") before arrival (",
          requests[i].arrival_cycle, ")");
    check(r.step_finish_cycles.size() == r.decode_steps, "request ", r.id,
          ": ", r.step_finish_cycles.size(), " step-finish landmarks for ",
          r.decode_steps, " decode steps");
    Cycle prev = r.slice.first_dispatch_cycle;
    for (std::size_t k = 0; k < r.step_finish_cycles.size(); ++k) {
      check(r.step_finish_cycles[k] >= prev, "request ", r.id, ": step ", k,
            " landmark ", r.step_finish_cycles[k],
            " moves backwards (previous ", prev, ")");
      prev = r.step_finish_cycles[k];
    }
    if (!r.step_finish_cycles.empty()) {
      check(r.step_finish_cycles.back() == r.finish_cycle, "request ", r.id,
            ": last step landmark ", r.step_finish_cycles.back(),
            " != finish (", r.finish_cycle, ")");
    }
  }

  // 7. SLO-goodput accounting sums.
  const SloReport slo = slo_accounting(stats, slo_ttft_cycles);
  check(slo.attained + slo.violated == slo.finished,
        "SLO buckets do not partition the finished set: attained (",
        slo.attained, ") + violated (", slo.violated, ") != finished (",
        slo.finished, ")");
  check(slo.finished == requests.size(), "only ", slo.finished, " of ",
        requests.size(), " requests finished (dropped request)");
  return report;
}

}  // namespace llamcat::scenario
