#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "scenario/fuzz.hpp"
#include "scenario/invariants.hpp"
#include "scenario/traffic.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/tracegen.hpp"

namespace perfbench {

using namespace llamcat;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::RequestBatch;
using scenario::RequestSpec;

RepCheck BenchWorkload::warm_up(Tracer& tracer) {
  release();
  setup(tracer);
  (void)run(tracer);
  return check(tracer);
}

namespace {

/// The two policy stacks every workload compares: the paper's optimized
/// stack (whose cycles are sim_kcycles) and the unoptimized baseline
/// (the numerator of sim_speedup).
struct Stack {
  ThrottlePolicy thr;
  ArbPolicy arb;
};
constexpr std::array<Stack, 2> kStacks = {{
    {ThrottlePolicy::kDynMg, ArbPolicy::kBma},
    {ThrottlePolicy::kNone, ArbPolicy::kFcfs},
}};
constexpr std::size_t kOpt = 0;
constexpr std::size_t kBase = 1;

std::string digest_of(const SimStats& s) {
  BatchStats b;
  b.total = s;
  return scenario::batch_stats_digest(b);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Machine counters of one (possibly folded) simulation, by layer.
void machine_counters(const SimStats& s, Values& out) {
  const StatSet& c = s.counters;
  out["vcore.ipc"] = s.ipc;
  out["vcore.mem_stall_kcycles"] =
      static_cast<double>(c.get("core.c_mem_total")) / 1e3;
  out["vcore.idle_kcycles"] =
      static_cast<double>(c.get("core.c_idle_total")) / 1e3;
  const std::uint64_t l1_hits = c.get("l1.load_hits");
  out["cache.l1_hit_rate"] =
      ratio(l1_hits,
            l1_hits + c.get("l1.load_misses") + c.get("l1.load_merges"));
  out["cache.l1_merges"] = static_cast<double>(c.get("l1.load_merges"));
  out["cache.l1_blocked"] = static_cast<double>(c.get("l1.load_blocked"));
  out["llc.lookups"] = static_cast<double>(c.get("llc.lookups"));
  out["llc.hit_rate"] = s.l2_hit_rate;
  out["llc.mshr_hit_rate"] = s.mshr_hit_rate;
  out["llc.mshr_entry_util"] = s.mshr_entry_util;
  out["llc.stall_entry_kcycles"] =
      static_cast<double>(c.get("llc.stall_entry")) / 1e3;
  out["llc.stall_target_kcycles"] =
      static_cast<double>(c.get("llc.stall_target")) / 1e3;
  out["llc.backpressure"] =
      static_cast<double>(c.get("llc.lookup_backpressure"));
  out["core.t_cs"] = s.t_cs;
  out["dram.reads"] = static_cast<double>(s.dram_reads);
  const std::uint64_t row_hits = c.get("dram.row_hits");
  out["dram.row_hit_rate"] =
      ratio(row_hits, row_hits + c.get("dram.row_misses"));
  out["dram.bw_gbps"] = s.dram_bw_gbps;
}

// ---------------------------------------------------------------------------
// logit_mha / logit_capacity: one Logit operator under both stacks.
// ---------------------------------------------------------------------------

class LogitBench final : public BenchWorkload {
 public:
  LogitBench(std::uint64_t seq_len, std::uint64_t llc_mb, TbDispatch dispatch,
             std::uint64_t seed)
      : model_(ModelShape::llama3_70b()), seq_len_(seq_len) {
    SimConfig base = SimConfig::table5();
    base.llc.size_bytes = llc_mb << 20;
    base.core.tb_dispatch = dispatch;
    base.seed = seed;
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      cfg_[i] = with_policies(base, kStacks[i].thr, kStacks[i].arb);
    }
  }

  void release() override {
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      sys_[i].reset();  // a System refers to its TraceGen: drop it first
      gen_[i].reset();
    }
  }

  void setup(Tracer& tracer) override {
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      {
        ScopedSpan span(tracer, "trace.map");
        wl_[i] = Workload::logit(model_, seq_len_, cfg_[i]);
      }
      {
        ScopedSpan span(tracer, "trace.tracegen");
        gen_[i].emplace(wl_[i].op, wl_[i].mapping);
      }
      ScopedSpan span(tracer, "sim.build");
      sys_[i] = std::make_unique<System>(cfg_[i], *gen_[i]);
    }
  }

  std::vector<HostTime> run(Tracer& tracer) override {
    std::vector<HostTime> times;
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      ScopedSpan span(tracer, "sim.run");
      const Stopwatch watch;
      stats_[i] = sys_[i]->run();
      times.push_back(watch.elapsed());
    }
    return times;
  }

  RepCheck check(Tracer& tracer) override {
    ScopedSpan span(tracer, "perfbench.check");
    RepCheck out;
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      // Every thread block retired and issued its whole instruction stream.
      std::uint64_t instrs = 0;
      for (std::uint64_t tb = 0; tb < gen_[i]->num_tbs(); ++tb) {
        instrs += gen_[i]->instr_count(tb);
      }
      ++out.attempted;
      if (stats_[i].thread_blocks != gen_[i]->num_tbs() ||
          stats_[i].instructions != instrs || stats_[i].cycles == 0) {
        ++out.failed;
      }
      out.digest += digest_of(stats_[i]);
    }
    return out;
  }

  void modeled_metrics(Values& out) const override {
    const SimStats& opt = stats_[kOpt];
    const double kcycles = static_cast<double>(opt.cycles) / 1e3;
    out["sim_kcycles"] = kcycles;
    out["sim_speedup"] = opt.speedup_vs(stats_[kBase]);
    // One request decoding one token: its TTFT and its token interval are
    // the operator's latency, and it meets any SLO that latency meets.
    out["ttft_p50_kcycles"] = kcycles;
    out["ttft_p90_kcycles"] = kcycles;
    out["tbt_p90_kcycles"] = kcycles;
    out["goodput_tps"] = opt.core_hz / static_cast<double>(opt.cycles);
  }

  void layer_counters(Values& out) const override {
    machine_counters(stats_[kOpt], out);
    out["trace.ops_lowered"] = static_cast<double>(kStacks.size());
    for (const char* name :
         {"scenario.segments", "scenario.preemptions",
          "scenario.queue_wait_kcycles", "scenario.swapped_blocks",
          "scenario.refetch_kcycles", "scenario.kv_hit_rate",
          "scenario.kv_dedup_ratio"}) {
      out[name] = 0.0;
    }
  }

  double simulated_kcycles() const override {
    return static_cast<double>(stats_[kOpt].cycles + stats_[kBase].cycles) /
           1e3;
  }

 private:
  ModelShape model_;
  std::uint64_t seq_len_;
  std::array<SimConfig, 2> cfg_;
  std::array<Workload, 2> wl_;
  std::array<std::optional<TraceGen>, 2> gen_;
  std::array<std::unique_ptr<System>, 2> sys_;
  std::array<SimStats, 2> stats_;
};

// ---------------------------------------------------------------------------
// serve_openloop: an open-loop Poisson stream through the serving stack.
// ---------------------------------------------------------------------------

/// TTFT service-level objective that defines goodput (51 us at 1.96 GHz).
constexpr Cycle kSloTtftCycles = 100'000;

class ServeBench final : public BenchWorkload {
 public:
  ServeBench(std::uint64_t seed, std::uint64_t traffic_seed)
      : model_(ModelShape::llama3_8b()) {
    traffic_.num_requests = 100;
    traffic_.seed = traffic_seed;
    traffic_.process = TrafficProcess::kPoisson;
    traffic_.mean_gap = 40'000;
    traffic_.seq_dist = TrafficDist::kLognormal;
    traffic_.seq_min = 32;
    traffic_.seq_max = 128;
    traffic_.steps_min = 1;
    traffic_.steps_max = 2;
    traffic_.prefix_groups = 4;

    pass_cfg_.num_layers = 1;
    pass_cfg_.include_gemv = false;
    pass_cfg_.mode = ExecutionMode::kContinuous;
    pass_cfg_.serving.policy = AdmitPolicy::kShortestRemaining;
    pass_cfg_.serving.kv_budget_bytes = 1ull << 20;
    // Preempted KV stays resident: with kv_evict=cold-blocks and multi-step
    // requests the engine breaks its own open-loop contract (BENCHMARK.md,
    // "Known defects"), and a benchmark must not time failing runs.
    pass_cfg_.serving.preempt = true;
    pass_cfg_.serving.kv_share = true;

    SimConfig base = SimConfig::table5();
    base.core.num_cores = 4;
    base.llc.size_bytes = 1ull << 20;
    base.llc.num_slices = 2;
    base.seed = seed;
    for (std::size_t i = 0; i < kStacks.size(); ++i) {
      cfg_[i] = with_policies(base, kStacks[i].thr, kStacks[i].arb);
    }
  }

  void release() override {
    pass_.reset();
    requests_.clear();
  }

  void setup(Tracer& tracer) override {
    {
      ScopedSpan span(tracer, "scenario.traffic");
      requests_ = scenario::generate_traffic(traffic_);
    }
    {
      ScopedSpan span(tracer, "scenario.schedule");
      pass_.emplace(RequestBatch(model_, requests_), pass_cfg_, cfg_[kOpt]);
    }
  }

  /// DecodePass lowers its operators inside its constructor, where no span
  /// reaches; lowering the same specs again through the public call gives
  /// the mapping layer's cost on its own.
  void traced_extras(Tracer& tracer) override {
    ScopedSpan span(tracer, "trace.map");
    for (const scenario::ScheduledOp& op : pass_->schedule()) {
      const Workload lowered = Workload::from_spec(op.workload.op, cfg_[kOpt]);
      (void)lowered;
    }
  }

  /// The baseline stack only supplies sim_speedup's numerator, which is
  /// exact, so it is simulated once per invocation, as the warm-up: it runs
  /// the same serving code over the same schedule as the timed passes.
  RepCheck warm_up(Tracer& tracer) override {
    release();
    setup(tracer);
    const DecodePass base(RequestBatch(model_, requests_), pass_cfg_,
                          cfg_[kBase]);
    baseline_ = base.run(/*threads=*/1);
    RepCheck out;
    audit(*baseline_, out);
    return out;
  }

  std::vector<HostTime> run(Tracer& tracer) override {
    ScopedSpan span(tracer, "scenario.run");
    const Stopwatch watch;
    stats_ = pass_->run(/*threads=*/1);
    return {watch.elapsed()};
  }

  RepCheck check(Tracer& tracer) override {
    ScopedSpan span(tracer, "perfbench.check");
    RepCheck out;
    audit(stats_, out);
    out.digest = scenario::batch_stats_digest(stats_);
    return out;
  }

  void modeled_metrics(Values& out) const override {
    out["sim_kcycles"] = static_cast<double>(stats_.makespan) / 1e3;
    out["sim_speedup"] = ratio(baseline_->makespan, stats_.makespan);
    const ServingFigures f = serving_figures(stats_, kSloTtftCycles);
    out["ttft_p50_kcycles"] = f.ttft_p50_kcycles;
    out["ttft_p90_kcycles"] = f.ttft_p90_kcycles;
    out["tbt_p90_kcycles"] = f.tbt_p90_kcycles;
    out["goodput_tps"] = f.goodput_tps;
  }

  void layer_counters(Values& out) const override {
    machine_counters(stats_.total, out);
    out["trace.ops_lowered"] = static_cast<double>(pass_->schedule().size());
    out["scenario.segments"] = static_cast<double>(stats_.per_op.size());
    out["scenario.preemptions"] =
        static_cast<double>(stats_.total_preemptions());
    out["scenario.queue_wait_kcycles"] =
        static_cast<double>(stats_.total_queue_wait()) / 1e3;
    out["scenario.swapped_blocks"] =
        static_cast<double>(stats_.total_swapped_blocks());
    out["scenario.refetch_kcycles"] =
        static_cast<double>(stats_.total_refetch_cycles()) / 1e3;
    out["scenario.kv_hit_rate"] = stats_.kv_hit_rate();
    out["scenario.kv_dedup_ratio"] = stats_.kv_dedup_ratio();
  }

  double simulated_kcycles() const override {
    return static_cast<double>(stats_.total.cycles) / 1e3;
  }

 private:
  /// Requests of a pass that broke the serving contract count as failed,
  /// all of them; otherwise the unfinished ones do.
  void audit(const BatchStats& s, RepCheck& out) const {
    const scenario::AuditReport batch =
        scenario::audit_batch(pass_->batch(), pass_cfg_, s);
    const scenario::AuditReport open_loop =
        scenario::audit_open_loop(requests_, s, kSloTtftCycles);
    out.attempted += requests_.size();
    if (!batch.ok() || !open_loop.ok()) {
      std::fprintf(stderr, "[perfbench] serving audit failed:\n%s\n%s\n",
                   batch.to_string().c_str(), open_loop.to_string().c_str());
      out.failed += requests_.size();
      return;
    }
    for (const auto& r : s.per_request) {
      if (r.finish_cycle == 0) ++out.failed;
    }
  }

  ModelShape model_;
  scenario::TrafficConfig traffic_;
  DecodePassConfig pass_cfg_;
  std::array<SimConfig, 2> cfg_;
  std::vector<RequestSpec> requests_;
  std::optional<DecodePass> pass_;
  BatchStats stats_;
  std::optional<BatchStats> baseline_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_workload(std::string_view name,
                                             std::uint64_t seed,
                                             std::uint64_t traffic_seed) {
  if (name == "logit_mha") {
    return std::make_unique<LogitBench>(
        4096, 16, TbDispatch::kPartitionedStealing, seed);
  }
  if (name == "logit_capacity") {
    return std::make_unique<LogitBench>(8192, 8, TbDispatch::kStaticBlocked,
                                        seed);
  }
  if (name == "serve_openloop") {
    return std::make_unique<ServeBench>(seed, traffic_seed);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
