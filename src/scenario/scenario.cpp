#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "scenario/invariants.hpp"
#include "scenario/kv_block_pool.hpp"
#include "sim/system.hpp"
#include "trace/dynamic_source.hpp"

namespace llamcat::scenario {

NameTable<StageKind> enum_names(StageKind) {
  static constexpr EnumName<StageKind> kNames[] = {
      {StageKind::kLogit, "logit"},
      {StageKind::kAttend, "attend"},
      {StageKind::kGemv, "gemv"}};
  return kNames;
}


RequestBatch::RequestBatch(ModelShape model, std::vector<RequestSpec> requests)
    : model_(std::move(model)), requests_(std::move(requests)) {
  if (requests_.empty()) {
    throw std::invalid_argument("RequestBatch: empty batch");
  }
  std::unordered_set<std::uint32_t> ids;
  for (const RequestSpec& r : requests_) {
    if (r.seq_len == 0) {
      throw std::invalid_argument("RequestBatch: zero seq_len");
    }
    if (r.decode_steps == 0) {
      throw std::invalid_argument("RequestBatch: zero decode_steps");
    }
    if (!ids.insert(r.id).second) {
      throw std::invalid_argument("RequestBatch: duplicate request id " +
                                  std::to_string(r.id));
    }
    if (r.prefix_group == kNoPrefixGroup) {
      if (r.prefix_tokens != 0) {
        throw std::invalid_argument(
            "RequestBatch: request " + std::to_string(r.id) +
            " declares prefix tokens without a prefix group");
      }
    } else if (r.prefix_tokens == 0 || r.prefix_tokens > r.seq_len) {
      throw std::invalid_argument(
          "RequestBatch: request " + std::to_string(r.id) +
          " prefix length must be in [1, seq_len]; got " +
          std::to_string(r.prefix_tokens) + " of " +
          std::to_string(r.seq_len) + " tokens");
    }
  }
}

RequestBatch RequestBatch::uniform(const ModelShape& model, std::uint32_t n,
                                   std::uint64_t seq_len) {
  std::vector<RequestSpec> reqs;
  reqs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) reqs.push_back({i, seq_len});
  return RequestBatch(model, std::move(reqs));
}

RequestBatch RequestBatch::with_seq_lens(
    const ModelShape& model, const std::vector<std::uint64_t>& seq_lens) {
  std::vector<RequestSpec> reqs;
  reqs.reserve(seq_lens.size());
  for (std::size_t i = 0; i < seq_lens.size(); ++i) {
    reqs.push_back({static_cast<std::uint32_t>(i), seq_lens[i]});
  }
  return RequestBatch(model, std::move(reqs));
}

std::uint64_t RequestBatch::kv_tokens_at_step(const RequestSpec& r,
                                              std::uint32_t step) const {
  // Mirrors the schedule construction: decode step s extends a KV cache the
  // previous steps grew to seq_len + s tokens, rounded up to a whole cache
  // line of elements (block-granular KV allocation).
  if (step == 0) return r.seq_len;
  const std::uint64_t granule = kLineBytes / model_.dtype_bytes;
  return (r.seq_len + step + granule - 1) / granule * granule;
}

std::uint64_t RequestBatch::peak_kv_tokens(const RequestSpec& r) const {
  return kv_tokens_at_step(r, r.decode_steps - 1);
}

std::uint64_t RequestBatch::total_peak_kv_tokens() const {
  std::uint64_t total = 0;
  for (const RequestSpec& r : requests_) total += peak_kv_tokens(r);
  return total;
}

std::uint64_t RequestBatch::kv_bytes_per_token() const {
  return static_cast<std::uint64_t>(model_.num_kv_heads) * model_.head_dim *
         model_.dtype_bytes;
}

std::uint64_t RequestBatch::peak_kv_bytes(const RequestSpec& r,
                                          std::uint32_t num_layers) const {
  return peak_kv_tokens(r) * kv_bytes_per_token() * num_layers;
}

std::uint64_t RequestBatch::prefix_kv_bytes(const RequestSpec& r,
                                            std::uint32_t num_layers) const {
  if (r.prefix_group == kNoPrefixGroup) return 0;
  // The prefix occupies the leading prefix_tokens of every layer's KV;
  // aggregated across layers like peak_kv_bytes (prefix_tokens <= seq_len
  // <= peak tokens, so this never exceeds the footprint).
  return r.prefix_tokens * kv_bytes_per_token() * num_layers;
}

std::uint64_t RequestBatch::total_peak_kv_bytes(
    std::uint32_t num_layers) const {
  std::uint64_t total = 0;
  for (const RequestSpec& r : requests_) total += peak_kv_bytes(r, num_layers);
  return total;
}

Cycle BatchStats::latency_percentile(double p) const {
  // Barrier modes never fill the stream landmarks; aggregating their
  // zero-initialized rows would silently report 0-cycle latencies, so the
  // sentinel makes a mixed-mode policy table impossible to mis-read.
  if (mode != ExecutionMode::kContinuous || per_request.empty()) {
    return kNeverCycle;
  }
  std::vector<Cycle> latencies;
  latencies.reserve(per_request.size());
  for (const RequestStats& r : per_request) latencies.push_back(r.latency());
  return percentile_nearest_rank(std::move(latencies), p);
}

Cycle BatchStats::ttft_percentile(double p) const {
  if (mode != ExecutionMode::kContinuous || per_request.empty()) {
    return kNeverCycle;
  }
  std::vector<Cycle> ttfts;
  ttfts.reserve(per_request.size());
  for (const RequestStats& r : per_request) ttfts.push_back(r.ttft());
  return percentile_nearest_rank(std::move(ttfts), p);
}

Cycle BatchStats::tbt_percentile(double p) const {
  if (mode != ExecutionMode::kContinuous) return kNeverCycle;
  std::vector<Cycle> gaps;
  for (const RequestStats& r : per_request) {
    for (std::size_t k = 1; k < r.step_finish_cycles.size(); ++k) {
      gaps.push_back(r.step_finish_cycles[k] - r.step_finish_cycles[k - 1]);
    }
  }
  if (gaps.empty()) return kNeverCycle;
  return percentile_nearest_rank(std::move(gaps), p);
}

std::uint64_t BatchStats::total_preemptions() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.preemptions;
  return n;
}

Cycle BatchStats::total_queue_wait() const {
  Cycle n = 0;
  for (const RequestStats& r : per_request) n += r.queued_cycles;
  return n;
}

std::uint64_t BatchStats::total_swapped_blocks() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.swapped_blocks;
  return n;
}

std::uint64_t BatchStats::total_refetch_bytes() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.refetch_bytes;
  return n;
}

Cycle BatchStats::total_refetch_cycles() const {
  Cycle n = 0;
  for (const RequestStats& r : per_request) n += r.refetch_cycles;
  return n;
}

void BatchStats::print(std::ostream& os) const {
  os << "mode: " << to_string(mode) << "\n";
  os << std::left << std::setw(10) << "request" << std::setw(10) << "seq_len"
     << std::setw(14) << "cycles" << std::setw(16) << "tokens/cycle";
  if (mode == ExecutionMode::kContinuous) {
    os << std::setw(10) << "arrival" << std::setw(10) << "admit"
       << std::setw(12) << "finish" << std::setw(12) << "latency"
       << std::setw(10) << "wait" << std::setw(9) << "preempt";
    if (paged) {
      os << std::setw(9) << "swap" << std::setw(12) << "refetch_b"
         << std::setw(12) << "refetch_c";
    }
    if (shared) {
      os << std::setw(9) << "pfx_hit" << std::setw(12) << "pfx_bytes";
    }
    os << std::setw(10) << "dram_rd" << std::setw(10) << "l2_hit";
  } else if (mode == ExecutionMode::kCoScheduled) {
    os << std::setw(12) << "in_flight" << std::setw(10) << "dram_rd"
       << std::setw(10) << "dram_wr" << std::setw(10) << "l2_hit";
  }
  os << "\n";
  for (const RequestStats& r : per_request) {
    os << std::left << std::setw(10) << r.id << std::setw(10) << r.seq_len
       << std::setw(14) << r.stats.cycles << std::scientific
       << std::setprecision(3) << std::setw(16) << r.tokens_per_cycle()
       << std::defaultfloat;
    if (mode == ExecutionMode::kContinuous) {
      os << std::setw(10) << r.arrival_cycle << std::setw(10) << r.admit_cycle
         << std::setw(12) << r.finish_cycle << std::setw(12) << r.latency()
         << std::setw(10) << r.queued_cycles << std::setw(9) << r.preemptions;
      if (paged) {
        os << std::setw(9) << r.swapped_blocks << std::setw(12)
           << r.refetch_bytes << std::setw(12) << r.refetch_cycles;
      }
      if (shared) {
        os << std::setw(9) << r.prefix_hit_blocks << std::setw(12)
           << r.prefix_hit_bytes;
      }
      os << std::setw(10) << r.slice.dram_reads << std::fixed
         << std::setprecision(4) << std::setw(10) << r.slice.l2_hit_rate()
         << std::defaultfloat;
    } else if (mode == ExecutionMode::kCoScheduled) {
      os << std::setw(12) << r.slice.cycles_in_flight << std::setw(10)
         << r.slice.dram_reads << std::setw(10) << r.slice.dram_writes
         << std::fixed << std::setprecision(4) << std::setw(10)
         << r.slice.l2_hit_rate() << std::defaultfloat;
    }
    os << "\n";
  }
  os << "\nbatch totals\n";
  total.print(os, /*include_per_request=*/false);
  if (mode == ExecutionMode::kContinuous) {
    os << "makespan          " << makespan << "\n"
       << "latency_p50       " << latency_percentile(50.0) << "\n"
       << "latency_p99       " << latency_percentile(99.0) << "\n"
       << "ttft_p50          " << ttft_percentile(50.0) << "\n"
       << "ttft_p99          " << ttft_percentile(99.0) << "\n"
       << "tbt_p50           " << tbt_percentile(50.0) << "\n"
       << "tbt_p99           " << tbt_percentile(99.0) << "\n"
       << "queue_wait        " << total_queue_wait() << "\n"
       << "preemptions       " << total_preemptions() << "\n";
    if (paged) {
      os << "swapped_blocks    " << total_swapped_blocks() << "\n"
         << "refetch_bytes     " << total_refetch_bytes() << "\n"
         << "refetch_cycles    " << total_refetch_cycles() << "\n";
    }
    if (shared) {
      os << "kv_lookups        " << kv_block_lookups << "\n"
         << "kv_hits           " << kv_block_hits << "\n"
         << std::fixed << std::setprecision(4) << "kv_hit_rate       "
         << kv_hit_rate() << std::defaultfloat << "\n"
         << "kv_shared_bytes   " << kv_shared_bytes << "\n"
         << "kv_charged_bytes  " << kv_charged_bytes << "\n"
         << std::fixed << std::setprecision(4) << "kv_dedup_ratio    "
         << kv_dedup_ratio() << std::defaultfloat << "\n";
    }
  }
  os << std::scientific << std::setprecision(3) << "tokens/cycle      "
     << tokens_per_cycle() << "\n"
     << std::fixed << std::setprecision(1) << "tokens/s          "
     << tokens_per_cycle() * total.core_hz << "\n"
     << std::defaultfloat;
}

void DecodePassConfig::validate() const {
  if (num_layers == 0) {
    throw std::invalid_argument("DecodePassConfig: num_layers == 0");
  }
  serving.validate();
}

DecodePass::DecodePass(RequestBatch batch, DecodePassConfig pass_cfg,
                       const SimConfig& cfg)
    : batch_(std::move(batch)), pass_cfg_(pass_cfg), cfg_(cfg) {
  pass_cfg_.validate();
  if (pass_cfg_.mode != ExecutionMode::kContinuous) {
    for (const RequestSpec& req : batch_.requests()) {
      if (req.arrival_cycle != 0) {
        throw std::invalid_argument(
            "DecodePass: arrival cycles require ExecutionMode::kContinuous "
            "(the barrier modes have no notion of mid-pass admission)");
      }
    }
  }
  if ((!pass_cfg_.serving.unconditional() || pass_cfg_.serving.kv_share) &&
      pass_cfg_.mode != ExecutionMode::kContinuous) {
    throw std::invalid_argument(
        "DecodePass: the serving-policy layer (admission policy, KV budget, "
        "preemption, prefix sharing) requires ExecutionMode::kContinuous - "
        "the barrier modes have no serving queue or block pool");
  }
  if (const std::uint64_t budget = pass_cfg_.serving.kv_budget_bytes;
      budget != 0) {
    for (const RequestSpec& req : batch_.requests()) {
      const std::uint64_t peak =
          batch_.peak_kv_bytes(req, pass_cfg_.num_layers);
      if (peak > budget) {
        throw std::invalid_argument(
            "DecodePass: request " + std::to_string(req.id) +
            " alone peaks at " + std::to_string(peak) +
            " KV bytes across " + std::to_string(pass_cfg_.num_layers) +
            " layers, exceeding the " + std::to_string(budget) +
            "-byte KV budget - no admission order can ever serve it");
      }
    }
  }
  const ModelShape& m = batch_.model();
  const std::uint64_t model_width =
      static_cast<std::uint64_t>(m.num_kv_heads) * m.group_size * m.head_dim;
  const std::uint64_t gemv_rows =
      pass_cfg_.gemv_rows ? pass_cfg_.gemv_rows : model_width;
  const std::uint32_t gemv_cols =
      pass_cfg_.gemv_cols ? pass_cfg_.gemv_cols
                          : static_cast<std::uint32_t>(model_width);

  const std::uint32_t stages_per_layer = pass_cfg_.include_gemv ? 3u : 2u;
  std::size_t total_ops = 0;
  for (const RequestSpec& req : batch_.requests()) {
    total_ops += static_cast<std::size_t>(req.decode_steps) *
                 pass_cfg_.num_layers * stages_per_layer;
  }
  schedule_.reserve(total_ops);
  std::uint64_t req_pos = 0;
  for (const RequestSpec& req : batch_.requests()) {
    for (std::uint32_t step = 0; step < req.decode_steps; ++step) {
      // Decode step s extends a KV cache the previous steps grew to
      // seq_len + s tokens (line-granule rounded - block-granular KV
      // allocation), reusing the request's per-layer address slot so the
      // resident KV lines stay hot across steps. kv_tokens_at_step is the
      // single source of truth, shared with the budget's peak accounting.
      const std::uint64_t step_seq = batch_.kv_tokens_at_step(req, step);
      for (std::uint32_t layer = 0; layer < pass_cfg_.num_layers; ++layer) {
        const std::uint64_t slot = req_pos * pass_cfg_.num_layers + layer;
        auto push = [&](StageKind stage, OperatorSpec spec) {
          ScheduledOp op;
          op.request_id = req.id;
          op.step = step;
          op.layer = layer;
          op.stage = stage;
          op.name = "req" + std::to_string(req.id);
          if (step > 0) {
            op.name += "/s";
            op.name += std::to_string(step);
          }
          op.name += "/L";
          op.name += std::to_string(layer);
          op.name += "/";
          op.name += to_string(stage);
          op.workload = Workload::from_spec(
              shift_to_slot(std::move(spec), slot), cfg_);
          schedule_.push_back(std::move(op));
        };
        push(StageKind::kLogit, OperatorSpec::logit(m, step_seq));
        push(StageKind::kAttend, OperatorSpec::attend(m, step_seq));
        if (pass_cfg_.include_gemv) {
          push(StageKind::kGemv, OperatorSpec::gemv(gemv_rows, gemv_cols));
        }
      }
    }
    ++req_pos;
  }
}

BatchStats DecodePass::run(std::size_t threads, bool verbose) const {
  switch (pass_cfg_.mode) {
    case ExecutionMode::kCoScheduled: return run_coscheduled(verbose);
    case ExecutionMode::kContinuous: return run_continuous(verbose);
    case ExecutionMode::kIndependent: break;
  }
  return run_independent(threads, verbose);
}

namespace {

/// id -> per_request index for O(1) per-request aggregation (the batches
/// here are small, but passes with many decode steps fold thousands of
/// per-op results).
std::unordered_map<std::uint32_t, std::size_t> request_index_map(
    const std::vector<RequestStats>& per_request) {
  std::unordered_map<std::uint32_t, std::size_t> map;
  map.reserve(per_request.size());
  for (std::size_t i = 0; i < per_request.size(); ++i) {
    if (!map.emplace(per_request[i].id, i).second) {
      // RequestBatch's constructor rejects duplicate ids, so this only
      // fires if a caller bypassed it - last-writer-wins would silently
      // misattribute every per-request stat, so fail loudly instead.
      throw std::logic_error("request_index_map: duplicate request id " +
                             std::to_string(per_request[i].id));
    }
  }
  return map;
}

/// Recomputes a fused-run request's derived stats from its accumulated
/// slice. `rs.stats.cycles` (resident time / latency, mode-defined) must
/// already be set. Shared by the co-scheduled and continuous folds.
void finalize_request_stats(RequestStats& rs, double core_hz) {
  rs.stats.core_hz = core_hz;
  rs.stats.instructions = rs.slice.instructions;
  rs.stats.thread_blocks = rs.slice.thread_blocks;
  rs.stats.dram_reads = rs.slice.dram_reads;
  rs.stats.dram_writes = rs.slice.dram_writes;
  rs.stats.counters.set("llc.lookups", rs.slice.llc_lookups);
  rs.stats.counters.set("llc.hits", rs.slice.llc_hits);
  rs.stats.counters.set("llc.misses", rs.slice.llc_misses);
  rs.stats.counters.set("llc.mshr_hits", rs.slice.llc_mshr_hits);
  rs.stats.counters.set("req.cycles_in_flight", rs.slice.cycles_in_flight);
  rs.stats.l2_hit_rate = rs.slice.l2_hit_rate();
  rs.stats.mshr_hit_rate =
      rs.slice.llc_misses
          ? static_cast<double>(rs.slice.llc_mshr_hits) /
                static_cast<double>(rs.slice.llc_misses)
          : 0.0;
  rs.stats.ipc = rs.stats.cycles
                     ? static_cast<double>(rs.stats.instructions) /
                           static_cast<double>(rs.stats.cycles)
                     : 0.0;
}

/// Shifts a shared run's per-request flight landmarks onto the stream
/// timeline at `base`, in place, so both the per-request folds and the
/// batch-total accumulation see stream-time values.
void shift_slices(SimStats& run, Cycle base) {
  for (RequestSlice& sl : run.per_request) {
    if (sl.first_dispatch_cycle != 0) sl.first_dispatch_cycle += base;
    if (sl.last_complete_cycle != 0) sl.last_complete_cycle += base;
  }
}

}  // namespace

BatchStats DecodePass::run_independent(std::size_t threads,
                                       bool verbose) const {
  std::vector<ExperimentSpec> specs;
  specs.reserve(schedule_.size());
  for (const ScheduledOp& op : schedule_) {
    specs.push_back({op.name, cfg_, op.workload});
  }

  BatchStats out;
  out.mode = ExecutionMode::kIndependent;
  out.per_op = run_experiments(specs, threads, verbose);

  out.per_request.reserve(batch_.size());
  for (const RequestSpec& req : batch_.requests()) {
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    out.per_request.push_back(rs);
  }
  const auto by_id = request_index_map(out.per_request);
  // Aggregation walks schedule order, so the result is independent of which
  // worker thread finished each simulation first.
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    out.per_request[by_id.at(schedule_[i].request_id)].stats.accumulate(
        out.per_op[i].stats);
    out.total.accumulate(out.per_op[i].stats);
  }
  out.makespan = out.total.cycles;
  return out;
}

BatchStats DecodePass::run_coscheduled(bool verbose) const {
  BatchStats out;
  out.mode = ExecutionMode::kCoScheduled;
  out.per_request.reserve(batch_.size());
  std::uint32_t max_steps = 0;
  for (const RequestSpec& req : batch_.requests()) {
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    rs.slice.request_id = req.id;
    out.per_request.push_back(rs);
    max_steps = std::max(max_steps, req.decode_steps);
  }
  const auto by_id = request_index_map(out.per_request);

  // One fused System per step-layer-stage wave: each wave holds the same
  // stage of every request still decoding at that step (stages of one
  // request are dependent, same-stage operators of different requests are
  // not), so co-resident requests contend for the shared LLC while each
  // request's Logit -> Attend -> GEMV chain stays sequential. Every wave is
  // a barrier: the machine drains before the next wave starts.
  std::vector<StageKind> stages{StageKind::kLogit, StageKind::kAttend};
  if (pass_cfg_.include_gemv) stages.push_back(StageKind::kGemv);

  // Bucket the schedule by (step, layer, stage) once - StageKind values
  // match the `stages` order - so wave assembly is linear in the schedule
  // instead of rescanning it per wave.
  const std::size_t nstages = stages.size();
  std::vector<std::vector<std::size_t>> wave_ops(
      static_cast<std::size_t>(max_steps) * pass_cfg_.num_layers * nstages);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const ScheduledOp& op = schedule_[i];
    wave_ops[(static_cast<std::size_t>(op.step) * pass_cfg_.num_layers +
              op.layer) *
                 nstages +
             static_cast<std::size_t>(op.stage)]
        .push_back(i);
  }

  Cycle base = 0;  // stream cycle where the current wave starts
  std::size_t wave_idx = 0;
  for (std::uint32_t step = 0; step < max_steps; ++step) {
    for (std::uint32_t layer = 0; layer < pass_cfg_.num_layers; ++layer) {
      for (const StageKind stage : stages) {
        DynamicTbSource src;
        for (const std::size_t i : wave_ops[wave_idx++]) {
          const ScheduledOp& op = schedule_[i];
          src.add(op.request_id, op.workload.op, op.workload.mapping);
        }
        src.commit(pass_cfg_.interleave);
        std::string name;
        if (max_steps > 1) {
          name += "s";
          name += std::to_string(step);
          name += "/";
        }
        name += "L";
        name += std::to_string(layer);
        name += "/";
        name += to_string(stage);
        name += "x";
        name += std::to_string(src.num_ops());
        if (verbose) std::cerr << "[coscheduled] " << name << "\n";

        System sys(cfg_, src, &src);
        // lint:allow(wallclock): verbose-mode wave wall timing; never feeds sim state
        const auto t0 = std::chrono::steady_clock::now();
        SimStats wave = sys.run();
        const std::chrono::duration<double> dt =
            // lint:allow(wallclock): verbose-mode wave wall timing; never feeds sim state
            std::chrono::steady_clock::now() - t0;

        shift_slices(wave, base);
        for (const RequestSlice& sl : wave.per_request) {
          RequestStats& rs = out.per_request[by_id.at(sl.request_id)];
          rs.slice.accumulate(sl);
          // Resident time: a co-scheduled request occupies the machine for
          // the whole wave, so its latency grows by the wave's duration.
          rs.stats.cycles += wave.cycles;
        }
        base += wave.cycles;
        out.total.accumulate(wave);
        out.per_op.push_back(
            ExperimentResult{name, std::move(wave), dt.count()});
      }
    }
  }
  for (RequestStats& rs : out.per_request) {
    finalize_request_stats(rs, out.total.core_hz);
  }
  out.makespan = out.total.cycles;
  return out;
}

namespace {

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
constexpr std::size_t kNumReqStates =
    static_cast<std::size_t>(ReqState::kFinished) + 1;

NameTable<ReqState> enum_names(ReqState) {
  using enum ReqState;
  static constexpr EnumName<ReqState> kNames[] = {
      {kPending, "pending"}, {kWaiting, "waiting"},
      {kRefetching, "refetching"}, {kRunning, "running"},
      {kPreempted, "preempted"}, {kFinished, "finished"}};
  return kNames;
}

/// Serving state machine and KV ledger of one continuous pass. It owns each
/// request's state, operator cursor and queue clock, the KV block pool and
/// the optional ledger auditor; the segment driver in run_continuous owns
/// the machine (System + DynamicTbSource) and asks the engine who moves.
/// Every transition checks its source state and throws std::logic_error
/// naming the edge when called from the wrong one.
class ServingEngine {
 public:
  static constexpr std::size_t kNobody = static_cast<std::size_t>(-1);

  ServingEngine(const RequestBatch& batch, const DecodePassConfig& pass_cfg,
                const std::vector<ScheduledOp>& schedule,
                std::vector<std::vector<std::size_t>> chains, BatchStats& out)
      : reqs_(batch.requests()),
        batch_(batch),
        schedule_(schedule),
        chains_(std::move(chains)),
        out_(out),
        policy_(pass_cfg.serving),
        paged_(pass_cfg.serving.paged()),
        req_(reqs_.size()),
        by_arrival_(reqs_.size()),
        pool_(pool_config(pass_cfg.serving), layouts(batch, pass_cfg)) {
    count_[static_cast<std::size_t>(ReqState::kPending)] = reqs_.size();
    for (std::size_t i = 0; i < reqs_.size(); ++i) by_arrival_[i] = i;
    std::stable_sort(by_arrival_.begin(), by_arrival_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return reqs_[a].arrival_cycle < reqs_[b].arrival_cycle;
                     });
    out_.paged = paged_;
    out_.shared = pass_cfg.serving.kv_share;
    // In-engine ledger auditor (invariants.hpp): every serving event below
    // reports itself so a KV-conservation break throws on the cycle it
    // happens. Off by default - it adds no stats and changes no behavior.
    if (pass_cfg.audit) {
      auditor_.emplace(pass_cfg.serving.kv_budget_bytes,
                       pool_.config().block_bytes, paged_,
                       layouts(batch, pass_cfg));
    }
  }

  [[nodiscard]] const AdmissionPolicy& policy() const { return policy_; }
  [[nodiscard]] bool paged() const { return paged_; }
  [[nodiscard]] ReqState state(std::size_t i) const { return req_[i].state; }
  [[nodiscard]] std::size_t count(ReqState s) const {
    return count_[static_cast<std::size_t>(s)];
  }
  /// Holds its budget share in the machine: running or refetching.
  [[nodiscard]] bool live(std::size_t i) const {
    return state(i) == ReqState::kRunning ||
           state(i) == ReqState::kRefetching;
  }
  [[nodiscard]] std::size_t num_live() const {
    return count(ReqState::kRunning) + count(ReqState::kRefetching);
  }
  [[nodiscard]] bool all_finished() const {
    return count(ReqState::kFinished) == reqs_.size();
  }
  /// Bumped by every state change and every operator-cursor advance: the
  /// engine-side inputs of the hook's stage-handoff scan.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

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
    if (req_[i].cursor != chains_[i].size()) {
      throw std::logic_error("ServingEngine::finish: request " +
                             std::to_string(i) + " still has operators left");
    }
    set(i, ReqState::kFinished);
    out_.per_request[i].finish_cycle = now;
    unpin(i, pool_.finish(i), "finish");
    if (auditor_) auditor_->on_finish(i, now, resident_);
  }

  /// Dispatches an admission-sweep pick to its edge.
  void admit_queued(std::size_t i, Cycle now) {
    if (state(i) == ReqState::kWaiting) {
      admit(i, now);
    } else {
      resume(i, now);
    }
  }

  /// Whether live request i's next operator may enter the machine at `now`
  /// (a refetching request lands first if its transfer is done).
  bool ready_to_enqueue(std::size_t i, Cycle now) {
    return state(i) == ReqState::kRunning || land_refetch(i, now);
  }

  // -- operator chain -------------------------------------------------------

  /// The running request's next operator; advances its cursor.
  const ScheduledOp& take_next(std::size_t i) {
    require(i, ReqState::kRunning, "take_next");
    ++epoch_;
    return schedule_[chains_[i][req_[i].cursor++]];
  }
  [[nodiscard]] bool chain_done(std::size_t i) const {
    return req_[i].cursor == chains_[i].size();
  }
  /// Whether the operator just taken (at cursor-1) closes a decode step.
  [[nodiscard]] bool closes_step(std::size_t i) const {
    const std::size_t c = req_[i].cursor;
    return c == chains_[i].size() ||
           schedule_[chains_[i][c]].step != schedule_[chains_[i][c - 1]].step;
  }

  // -- policy inputs --------------------------------------------------------

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
      std::size_t except = kNobody) const {
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
    return policy_.select(std::move(q), running_work(), resident_);
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
    if (next == kNeverCycle) {
      throw std::logic_error(std::string("run_continuous: ") + where +
                             " at stream cycle " + std::to_string(after) +
                             " with no pending arrival or refetch (" +
                             std::to_string(count(ReqState::kFinished)) +
                             " of " + std::to_string(reqs_.size()) +
                             " requests finished)");
    }
    return next;
  }

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

 private:
  struct Req {
    ReqState state = ReqState::kPending;
    std::size_t cursor = 0;  // next chain op to enqueue
    Cycle queue_enter = 0;   // stream cycle it last entered the queue
    Cycle refetch_ready = 0;  // kRefetching: when its transfer lands
  };

  static KvBlockPoolConfig pool_config(const ServingConfig& serving) {
    KvBlockPoolConfig c;
    c.block_bytes =
        serving.kv_block_bytes != 0 ? serving.kv_block_bytes : kLineBytes;
    c.refetch_cost = serving.refetch_cost;
    return c;
  }
  /// Every request's KV geometry. With sharing off (or no prefix group)
  /// every layout is private and the pool charges and frees each whole
  /// footprint; with sharing on, requests in a prefix group pin their
  /// common leading blocks once.
  static std::vector<KvBlockPool::RequestLayout> layouts(
      const RequestBatch& batch, const DecodePassConfig& pass_cfg) {
    std::vector<KvBlockPool::RequestLayout> l(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const RequestSpec& r = batch.requests()[i];
      l[i].footprint_bytes = batch.peak_kv_bytes(r, pass_cfg.num_layers);
      if (pass_cfg.serving.kv_share && r.prefix_group != kNoPrefixGroup) {
        l[i].prefix_group = r.prefix_group;
        l[i].prefix_bytes = batch.prefix_kv_bytes(r, pass_cfg.num_layers);
      }
    }
    return l;
  }

  /// kPending -> kWaiting: the arrival clock struck; the request enters the
  /// serving queue. Only notice_arrivals calls it, in arrival order, which
  /// keeps kPending exactly the suffix of by_arrival_ past the cursor.
  void arrive(std::size_t i, Cycle now) {
    require(i, ReqState::kPending, "arrive");
    set(i, ReqState::kWaiting);
    req_[i].queue_enter = now;
  }

  [[nodiscard]] bool queued(std::size_t i) const {
    return state(i) == ReqState::kWaiting ||
           state(i) == ReqState::kPreempted;
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
  const std::vector<std::vector<std::size_t>> chains_;
  BatchStats& out_;
  const AdmissionPolicy policy_;
  const bool paged_;
  std::vector<Req> req_;
  std::array<std::size_t, kNumReqStates> count_{};
  /// Request indices stable-sorted by arrival cycle; the first `arrived_`
  /// have arrived, the rest are exactly the kPending requests.
  std::vector<std::size_t> by_arrival_;
  std::size_t arrived_ = 0;
  std::uint64_t epoch_ = 0;
  /// KV bytes pinned by admitted, unfinished requests. Under kv_evict=none
  /// a preempted request keeps its whole charge pinned; under cold-blocks
  /// eviction its swapped blocks leave this ledger until the resume
  /// refetch re-pins them.
  std::uint64_t resident_ = 0;
  KvBlockPool pool_;
  std::optional<ServingAuditor> auditor_;
};

}  // namespace

BatchStats DecodePass::run_continuous(bool verbose) const {
  BatchStats out;
  out.mode = ExecutionMode::kContinuous;
  const std::vector<RequestSpec>& reqs = batch_.requests();
  out.per_request.reserve(reqs.size());
  for (const RequestSpec& req : reqs) {
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    rs.streamed = true;
    rs.arrival_cycle = req.arrival_cycle;
    rs.slice.request_id = req.id;
    out.per_request.push_back(rs);
  }
  const auto by_id = request_index_map(out.per_request);

  // Per-request operator chains in schedule order (step-major, then layer,
  // then Logit -> Attend [-> GEMV]).
  std::vector<std::vector<std::size_t>> chains(reqs.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    chains[by_id.at(schedule_[i].request_id)].push_back(i);
  }
  // Under AdmitPolicy::kNone every arrival is admitted the same cycle it
  // enters the queue, which reproduces the raw streaming engine byte for
  // byte.
  ServingEngine eng(batch_, pass_cfg_, schedule_, std::move(chains), out);
  const AdmissionPolicy& policy = eng.policy();

  // The stream is simulated as a chain of System segments sharing one
  // timeline (`base` = stream cycle where the current segment starts).
  // While two or more requests overlap, one segment hosts them all: the
  // admission hook enqueues a request's next operator the moment its
  // previous one completes and admits arrivals mid-flight, so the machine
  // never drains and the whole overlap runs in one long-lived System. A
  // request *alone* in the machine instead hands off at the drain boundary:
  // the segment ends and its next operator starts in a fresh System -
  // exactly a one-request co-scheduled wave, which is what makes the
  // zero-arrival batch-of-one reproduce kCoScheduled bit for bit.
  Cycle base = 0;
  std::size_t seg_id = 0;

  while (!eng.all_finished()) {
    DynamicTbSource src;
    const auto enqueue_next = [&](std::size_t i) {
      const ScheduledOp& op = eng.take_next(i);
      src.add(op.request_id, op.workload.op, op.workload.mapping);
    };
    // Segment-local caches, refreshed only when work is committed: each
    // request's committed TB count and its dense scheduler index (the hook
    // runs every cycle, so the steady-state check must be plain array
    // reads, not hash lookups).
    std::vector<std::uint64_t> seg_enq(reqs.size(), 0);
    std::vector<std::uint32_t> dense(reqs.size(), kNoRequest);
    // (completed TBs, engine epoch) at the last stage-handoff scan that
    // found nothing (see step 2 of the hook); no scan has run yet.
    std::uint64_t idle_completed = ~std::uint64_t{0};
    std::uint64_t idle_epoch = 0;

    // Assemble the segment start. Outside paged mode one pass always
    // enqueues something; with paging the pass can come up empty (every
    // live request mid-refetch), in which case the stream clock hops to
    // the next event - a refetch completion or an arrival - and retries.
    std::size_t started = 0;
    for (;;) {
      eng.notice_arrivals(base);
      // Drain-boundary eviction sweep (paged mode): a carried-over running
      // request yields its stage boundary - and its cold blocks' budget
      // bytes - to much-shorter pressure before re-enqueueing. This is
      // where a LONE long request is evicted in favor of a budget-blocked
      // short arrival (mid-flight stage boundaries take the hook's
      // preemption path instead; a lone request's boundary IS the drain).
      if (eng.paged() && policy.config().preempt) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (eng.state(i) == ReqState::kRunning &&
              policy.should_preempt(eng.remaining_work(i),
                                    eng.running_work(i),
                                    eng.eviction_pressure_on(i))) {
            eng.preempt(i, base);
          }
        }
      }
      std::vector<std::size_t> selected = eng.select();
      if (selected.empty() && eng.num_live() == 0) {
        // The policy guarantees progress on an idle machine, so the queue
        // is empty: idle until the next arrival, keeping the dead cycles
        // on the stream clock.
        base = eng.hop_target(base, "idle machine");
        eng.notice_arrivals(base);
        selected = eng.select();
      }

      // Requests continuing from the previous segment plus this sweep's
      // admissions start the segment, enqueued in request-index order (the
      // policy decides WHO starts; index order keeps the TB fuse order
      // identical to the raw engine's under kNone).
      std::sort(selected.begin(), selected.end());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (std::binary_search(selected.begin(), selected.end(), i)) {
          eng.admit_queued(i, base);
        }
        if (eng.live(i) && eng.ready_to_enqueue(i, base)) {
          enqueue_next(i);
          ++started;
        }
      }
      if (started > 0) break;
      // Nothing entered the machine: everyone live is paying a refetch
      // (the machine idles on the host link). Hop to the earliest refetch
      // completion or not-yet-noticed arrival; both are strictly > base.
      base = eng.hop_target(base, "every live request refetching");
    }
    src.commit(pass_cfg_.interleave);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (eng.state(i) == ReqState::kRunning) {
        seg_enq[i] = src.tbs_of_request(reqs[i].id);
      }
    }
    System sys(cfg_, src, &src);
    if (verbose) {
      std::cerr << "[continuous] segment " << seg_id << " @" << base << ": "
                << started << " request(s)\n";
    }

    const auto hook = [&](System& s, Cycle now) {
      const Cycle global = base + now;
      // Skip-ahead contract: every exit path publishes the earliest future
      // landmark this hook can act on its own - an unarrived request's
      // arrival clock or a pending refetch completion. Until then every
      // elided invocation is a no-op (completions always surface through
      // busy machine cycles, which forbid skipping by themselves), so the
      // System may jump straight to the landmark.
      const auto publish_hint = [&] {
        const Cycle next = eng.next_landmark(global);
        s.set_wake_hint(next == kNeverCycle ? kNeverCycle : next - base);
      };
      const auto commit_and_refresh = [&](const std::vector<std::size_t>& is) {
        src.commit(pass_cfg_.interleave);
        s.inject_work();
        for (const std::size_t i : is) {
          seg_enq[i] = src.tbs_of_request(reqs[i].id);
        }
      };
      std::vector<std::size_t> touched;
      const auto admit_sweep = [&] {
        std::vector<std::size_t> picks = eng.select();
        std::sort(picks.begin(), picks.end());
        for (const std::size_t i : picks) {
          eng.admit_queued(i, global);
          // A paged resume is admitted (budget re-pinned) but its operator
          // waits out the refetch; step 1.5 below enqueues it when due.
          if (eng.ready_to_enqueue(i, global)) {
            enqueue_next(i);
            touched.push_back(i);
          }
        }
      };
      // 1) Arrivals enter the serving queue mid-flight; the policy admits
      // whoever fits into the live machine (all of them under kNone).
      if (eng.notice_arrivals(global)) admit_sweep();
      if (!touched.empty()) commit_and_refresh(touched);
      // 1.5) Requests whose refetch transfer just completed (paged resumes,
      // or first admissions that refetched a peer-released shared block)
      // enter the machine.
      if (eng.count(ReqState::kRefetching) != 0) {
        touched.clear();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (eng.state(i) == ReqState::kRefetching &&
              eng.land_refetch(i, global)) {
            enqueue_next(i);
            touched.push_back(i);
          }
        }
        if (!touched.empty()) commit_and_refresh(touched);
      }
      // 2) Stage handoff. A running request whose current operator just
      // completed advances (or finishes) eagerly as long as it has company
      // - any other live request keeps the machine live, so the stream
      // never drains (simultaneous completions included: the tied requests
      // advance together rather than forcing a barrier). A request *alone*
      // in the machine instead hands off at the drain boundary: the
      // segment ends and its next operator starts in a fresh System,
      // exactly like a one-request wave. With preemption enabled, a
      // request due to advance instead yields its stage boundary to a
      // much-shorter co-running request: it re-enters the serving queue
      // with its KV (and budget share) intact. A refetching request has no
      // operator in flight, so it never takes this path.
      //
      // A request is due when its completed TB count reached its committed
      // count. Those inputs move only when the scheduler completes a TB or
      // the engine changes a state or advances a cursor (every seg_enq
      // update follows one of those), so while (completed, epoch) still
      // equals its value at a scan that found nothing, a rescan would find
      // nothing too and is skipped.
      const std::uint64_t completed = s.scheduler().completed();
      if (eng.num_live() < 2 ||
          (completed == idle_completed && eng.epoch() == idle_epoch)) {
        publish_hint();
        return;
      }
      const auto seg_completed = [&](std::size_t i) -> std::uint64_t {
        if (dense[i] == kNoRequest) {
          dense[i] = s.scheduler().dense_index_of(reqs[i].id);
          if (dense[i] == kNoRequest) return 0;
        }
        return s.scheduler().completed_of(dense[i]);
      };
      touched.clear();
      bool freed = false;
      bool due = false;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (eng.state(i) != ReqState::kRunning) continue;
        if (seg_enq[i] == 0 || seg_completed(i) != seg_enq[i]) continue;
        due = true;
        // The op at cursor-1 just completed. If it closes a decode step,
        // stamp the step-finish landmark (the TBT clock) now, BEFORE the
        // advance/preempt/finish decision: a preempted request's completed
        // operator still ended its step at this cycle.
        if (eng.closes_step(i)) {
          out.per_request[i].step_finish_cycles.push_back(global);
        }
        if (!eng.chain_done(i)) {
          if (policy.config().preempt &&
              policy.should_preempt(eng.remaining_work(i),
                                    eng.running_work(i),
                                    eng.eviction_pressure_on(i))) {
            eng.preempt(i, global);
            // Its completed operator is consumed: if it resumes into a
            // refetch hold, the stale count must not read as a fresh
            // completion.
            seg_enq[i] = 0;
            freed = true;
          } else {
            enqueue_next(i);
            touched.push_back(i);
          }
        } else {
          eng.finish(i, global);
          src.retire_request(reqs[i].id);
          freed = true;
        }
      }
      if (!due) {
        idle_completed = completed;
        idle_epoch = eng.epoch();
      }
      if (!touched.empty()) commit_and_refresh(touched);
      // 3) A finish freed budget (or a preemption freed the machine):
      // someone in the queue may be admittable now.
      if (freed) {
        touched.clear();
        admit_sweep();
        if (!touched.empty()) commit_and_refresh(touched);
      }
      publish_hint();
    };

    // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
    const auto t0 = std::chrono::steady_clock::now();
    SimStats seg = sys.run(hook);
    const std::chrono::duration<double> dt =
        // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
        std::chrono::steady_clock::now() - t0;
    const Cycle end = base + seg.cycles;

    // Drain boundary: every op enqueued this segment has completed by now.
    // A running request with segment work (seg_enq != 0) therefore just
    // completed its op at cursor-1 without the hook seeing it (it was
    // alone, or the completion coincided with the drain) - if that op
    // closes a decode step, the step ends at the segment boundary, exactly
    // where the finish landmark below lands. Requests the hook already
    // advanced moved their cursor past the recorded op, so nothing is
    // stamped twice; a refetching request has no op in flight and is
    // skipped. Requests that ran out of chain with no co-resident work
    // finish here, with the drain included in their latency (their final
    // stage ends exactly like a one-request wave).
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (eng.state(i) != ReqState::kRunning || seg_enq[i] == 0) continue;
      if (eng.closes_step(i)) {
        out.per_request[i].step_finish_cycles.push_back(end);
      }
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (eng.state(i) == ReqState::kRunning && eng.chain_done(i)) {
        eng.finish(i, end);
      }
    }
    shift_slices(seg, base);
    for (const RequestSlice& sl : seg.per_request) {
      out.per_request[by_id.at(sl.request_id)].slice.accumulate(sl);
    }
    out.total.accumulate(seg);
    out.per_op.push_back(ExperimentResult{
        "seg" + std::to_string(seg_id) + "@" + std::to_string(base),
        std::move(seg), dt.count()});
    base = end;
    ++seg_id;
  }

  eng.end_pass();
  out.makespan = base;
  for (RequestStats& rs : out.per_request) {
    // True per-request latency: finish minus arrival, queueing included.
    rs.stats.cycles = rs.latency();
    finalize_request_stats(rs, out.total.core_hz);
    rs.stats.counters.set("req.queue_wait", rs.queued_cycles);
    rs.stats.counters.set("req.preemptions", rs.preemptions);
    if (out.paged) {
      rs.stats.counters.set("req.swapped_blocks", rs.swapped_blocks);
      rs.stats.counters.set("req.refetch_bytes", rs.refetch_bytes);
      rs.stats.counters.set("req.refetch_cycles", rs.refetch_cycles);
    }
    if (out.shared) {
      rs.stats.counters.set("req.prefix_hit_blocks", rs.prefix_hit_blocks);
      rs.stats.counters.set("req.prefix_hit_bytes", rs.prefix_hit_bytes);
    }
  }
  return out;
}

}  // namespace llamcat::scenario
