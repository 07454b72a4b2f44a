#include "scenario/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "scenario/serving_engine.hpp"
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

BatchStats DecodePass::run_continuous(bool verbose) const {
  BatchStats out;
  out.mode = ExecutionMode::kContinuous;
  ServingEngine eng(batch_, pass_cfg_, schedule_, out);

  // The stream is simulated as a chain of System segments sharing one
  // timeline (`base` = stream cycle where the current segment starts).
  // While two or more requests overlap, one segment hosts them all: the
  // admission hook enqueues a request's next operator the moment its
  // previous one completes and admits arrivals mid-flight. A request
  // *alone* in the machine instead hands off at the drain boundary, to a
  // fresh System - exactly a one-request co-scheduled wave, which is what
  // makes the zero-arrival batch-of-one reproduce kCoScheduled bit for bit.
  // The engine makes every serving decision; this loop runs the machine.
  for (std::size_t seg_id = 0; !eng.all_finished(); ++seg_id) {
    DynamicTbSource src;
    const std::size_t started = eng.start_segment(src);
    const Cycle base = eng.base();
    System sys(cfg_, src, &src);
    if (verbose) {
      std::cerr << "[continuous] segment " << seg_id << " @" << base << ": "
                << started << " request(s)\n";
    }
    // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
    const auto t0 = std::chrono::steady_clock::now();
    SimStats seg =
        sys.run([&eng](System& s, Cycle now) { eng.on_cycle(s, now); });
    const std::chrono::duration<double> dt =
        // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
        std::chrono::steady_clock::now() - t0;
    eng.end_segment(sys);

    shift_slices(seg, base);
    for (const RequestSlice& sl : seg.per_request) {
      out.per_request[eng.index_of(sl.request_id)].slice.accumulate(sl);
    }
    out.total.accumulate(seg);
    out.per_op.push_back(ExperimentResult{
        "seg" + std::to_string(seg_id) + "@" + std::to_string(base),
        std::move(seg), dt.count()});
  }

  eng.end_pass();
  out.makespan = eng.base();
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
