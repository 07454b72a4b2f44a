#include "sim/experiment.hpp"

#include <chrono>
#include <iostream>
#include <sstream>

#include "common/parallel_map.hpp"
#include "sim/system.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {

namespace {
// The hybrid framework's Timeloop stage maps the operator's largest loop -
// the sequence dimension L - spatially across cores and keeps the (h, g)
// sweep temporal inside each core, producing l-major per-core trace files
// (paper Fig 6 / Â§6.2.2: the fastest axis stays a whole cache line per
// vector core and >= 64B of L sits in the innermost L1 temporal level).
// Under the static per-core dispatch this is the LHG thread-block order;
// the wave-preserving dispatch interleaves the G blocks of one KV tile
// across cores (HLG), which is what exposes GQA merge locality to the
// MSHRs. Other orders remain available through Workload::with_mapping
// and are compared in bench/ablation_trace_order.
TbOrder order_for(TbDispatch dispatch) {
  return dispatch == TbDispatch::kStaticBlocked ? TbOrder::kLHG
                                                : TbOrder::kHLG;
}
}  // namespace

Workload Workload::logit(const ModelShape& model, std::uint64_t seq_len,
                         const SimConfig& cfg) {
  return from_spec(OperatorSpec::logit(model, seq_len), cfg);
}

Workload Workload::attend(const ModelShape& model, std::uint64_t seq_len,
                          const SimConfig& cfg) {
  return from_spec(OperatorSpec::attend(model, seq_len), cfg);
}

Workload Workload::gemv(std::uint64_t rows, std::uint32_t cols,
                        const SimConfig& cfg) {
  return from_spec(OperatorSpec::gemv(rows, cols), cfg);
}

Workload Workload::from_spec(OperatorSpec op, const SimConfig& cfg) {
  op.validate();
  Workload wl;
  wl.op = std::move(op);
  wl.mapping = Mapper().search(wl.op, cfg.core, cfg.llc).mapping;
  wl.mapping.order = order_for(cfg.core.tb_dispatch);
  return wl;
}

Workload Workload::with_mapping(OperatorSpec op, Mapping m) {
  m.validate(op);
  return Workload{std::move(op), m};
}

SimStats run_simulation(const SimConfig& cfg, const Workload& wl) {
  TraceGen gen(wl.op, wl.mapping);
  System sys(cfg, gen);
  return sys.run();
}

std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentSpec> specs, std::size_t threads,
    bool verbose) {
  return parallel_map(specs.size(), threads, [&](std::size_t i) {
    const ExperimentSpec& spec = specs[i];
    // lint:allow(wallclock): wall_seconds reports host runtime; sim state is cycle-driven
    const auto t0 = std::chrono::steady_clock::now();
    ExperimentResult r;
    r.name = spec.name;
    r.stats = run_simulation(spec.cfg, spec.workload);
    r.wall_seconds =
        // lint:allow(wallclock): wall_seconds reports host runtime; sim state is cycle-driven
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (verbose) {
      // One write per line, from the worker that finished the run, so
      // concurrent runs never interleave mid-line.
      std::ostringstream line;
      line << "[exp] " << r.name << ": " << r.stats.cycles << " cycles ("
           << r.wall_seconds << "s wall)\n";
      std::cerr << line.str();
    }
    return r;
  });
}

SimConfig with_policies(const SimConfig& base, ThrottlePolicy thr,
                        ArbPolicy arb, std::optional<RespArbPolicy> resp_arb) {
  SimConfig cfg = base;
  cfg.throttle.policy = thr;
  cfg.arb.policy = arb;
  if (resp_arb) {
    cfg.llc.resp_arb = *resp_arb;
  } else if (arb == ArbPolicy::kCobrra) {
    // COBRRA's request-response arbitration: requests first, responses
    // preempt at the high-water mark (paper §3.3 / [3]).
    cfg.llc.resp_arb = RespArbPolicy::kRequestFirst;
  }
  return cfg;
}

std::vector<Workload> decode_attention_step(const ModelShape& model,
                                            std::uint64_t seq_len,
                                            const SimConfig& cfg) {
  return {Workload::logit(model, seq_len, cfg),
          Workload::attend(model, seq_len, cfg)};
}

}  // namespace llamcat
