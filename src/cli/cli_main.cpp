// llamcat_cli: run one simulation (or a decode pipeline) on the Table 5
// machine with any combination of workload / policy / machine overrides,
// and export the results. See --help (cli/options.hpp) for the vocabulary.
//
//   llamcat_cli --model=llama3-70b --seq=8192 --policy=dynmg+BMA --energy
//   llamcat_cli --op=gemv --gemv-rows=16384 --json=run.json
//   llamcat_cli --op=decode --seq=4096 --dispatch=wave
//   llamcat_cli --op=batch --seqs=256,512 --layers=2 --policy=dynmg+BMA
//   llamcat_cli --op=batch --mode=coscheduled --requests=4 --seq=512
//   llamcat_cli --op=batch --mode=continuous --seqs=4096,512,512
//       --arrivals=0,0,200000 --steps=2
//   llamcat_cli --op=batch --mode=continuous --seqs=4096,512,512
//       --arrivals=0,10000,20000 --admit-policy=srf --kv-budget=18874368
//       --preempt --no-gemv
//   llamcat_cli --op=batch --mode=continuous --seqs=4096,512,512
//       --arrivals=0,10000,20000 --admit-policy=srf --kv-budget=18874368
//       --preempt --kv-evict=cold-blocks --refetch-cost=2 --no-gemv
//   llamcat_cli --op=batch --mode=continuous --traffic=poisson
//       --requests=8 --traffic-gap=50000 --trace-out=run.trace
//   llamcat_cli --op=batch --mode=continuous --trace-in=run.trace --digest
#include "cli/options.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"
#include "sim/energy.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace llamcat {

namespace {

std::vector<Workload> build_workloads(const CliOptions& opt) {
  if (opt.op == "logit") {
    return {Workload::logit(opt.model, opt.seq_len, opt.cfg)};
  }
  if (opt.op == "attend") {
    return {Workload::attend(opt.model, opt.seq_len, opt.cfg)};
  }
  if (opt.op == "gemv") {
    return {Workload::gemv(opt.gemv_rows, opt.gemv_cols, opt.cfg)};
  }
  // "decode": the attention pipeline for one token.
  return decode_attention_step(opt.model, opt.seq_len, opt.cfg);
}

int export_results(const CliOptions& opt,
                   const std::vector<ExperimentResult>& results,
                   std::ostream& out, std::ostream& err) {
  if (!opt.csv_path.empty()) {
    std::ofstream csv(opt.csv_path);
    if (!csv) {
      err << "cannot open " << opt.csv_path << "\n";
      return 1;
    }
    write_csv(csv, results);
    out << "wrote " << opt.csv_path << "\n";
  }
  if (!opt.json_path.empty()) {
    std::ofstream json(opt.json_path);
    if (!json) {
      err << "cannot open " << opt.json_path << "\n";
      return 1;
    }
    write_json(json, results);
    out << "wrote " << opt.json_path << "\n";
  }
  return 0;
}

/// Builds the request list from whichever workload source the flags chose:
/// a recorded trace (--trace-in), the open-loop generator (--traffic), or
/// the hand-built per-request flags. Throws std::invalid_argument (with a
/// flag-nameable message) on a malformed trace or traffic shape.
std::vector<scenario::RequestSpec> build_batch_specs(const CliOptions& opt) {
  if (!opt.trace_in_path.empty()) {
    std::ifstream in(opt.trace_in_path);
    if (!in) {
      throw std::invalid_argument("cannot open --trace-in file " +
                                  opt.trace_in_path);
    }
    return scenario::read_trace(in);
  }
  if (opt.traffic) {
    return scenario::generate_traffic(opt.traffic_cfg);
  }
  std::vector<std::uint64_t> seq_lens = opt.batch_seq_lens;
  if (seq_lens.empty()) {
    seq_lens.assign(opt.batch_requests, opt.seq_len);
  }
  // --arrivals / --steps broadcast a single entry across the batch (the
  // option parser has already checked the arities).
  const auto pick = [](const std::vector<std::uint64_t>& v, std::size_t i,
                       std::uint64_t fallback) {
    if (v.empty()) return fallback;
    return v.size() == 1 ? v[0] : v[i];
  };
  std::vector<scenario::RequestSpec> specs;
  specs.reserve(seq_lens.size());
  for (std::size_t i = 0; i < seq_lens.size(); ++i) {
    scenario::RequestSpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.seq_len = seq_lens[i];
    spec.arrival_cycle = pick(opt.batch_arrivals, i, 0);
    spec.decode_steps =
        static_cast<std::uint32_t>(pick(opt.batch_steps, i, 1));
    // Prefix identity (only meaningful under --kv-share=on; a 0-token
    // entry keeps the request fully private).
    const std::uint64_t prefix = pick(opt.batch_prefix_tokens, i, 0);
    if (opt.pass.serving.kv_share && prefix != 0) {
      spec.prefix_group =
          static_cast<std::uint32_t>(pick(opt.batch_prefix_groups, i, 0));
      spec.prefix_tokens = prefix;
    }
    specs.push_back(spec);
  }
  return specs;
}

int run_batch(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  const scenario::DecodePassConfig& pass_cfg = opt.pass;

  // Workload-source expansion and batch/pass construction both validate
  // the scenario (malformed traces, off-granule traffic shapes, duplicate
  // request ids, a request whose peak KV alone exceeds --kv-budget, ...):
  // report those as configuration errors, not simulation failures.
  std::optional<scenario::RequestBatch> batch;
  std::optional<scenario::DecodePass> pass;
  try {
    std::vector<scenario::RequestSpec> specs = build_batch_specs(opt);
    if (!opt.trace_out_path.empty()) {
      std::ofstream trace(opt.trace_out_path);
      if (!trace) {
        err << "cannot open " << opt.trace_out_path << "\n";
        return 1;
      }
      scenario::write_trace(trace, specs);
      if (!opt.digest_only)
        out << "wrote " << opt.trace_out_path << "\n";
    }
    batch.emplace(opt.model, std::move(specs));
    pass.emplace(*batch, pass_cfg, opt.cfg);
  } catch (const std::invalid_argument& e) {
    err << "error: invalid batch scenario: " << e.what() << "\n";
    return 2;
  }
  if (opt.digest_only) {
    // Nothing but the canonical digest: the scripted equivalence check
    // compares this output byte for byte across runs.
    const scenario::BatchStats stats = pass->run(0, opt.verbose);
    out << scenario::batch_stats_digest(stats);
    return export_results(opt, stats.per_op, out, err);
  }
  out << "machine: " << opt.cfg.summary() << "\n"
            << "batch:   " << batch->size() << " requests, "
            << pass_cfg.num_layers << " layers, " << pass->schedule().size()
            << " operator runs, mode=" << to_string(pass_cfg.mode) << "\n";
  if (!pass_cfg.serving.unconditional() || pass_cfg.serving.kv_share) {
    out << "serving: admit=" << to_string(pass_cfg.serving.policy)
              << " kv-budget=";
    if (pass_cfg.serving.kv_budget_bytes == 0) {
      out << "unlimited";
    } else {
      out << pass_cfg.serving.kv_budget_bytes << "B";
    }
    out << " (batch peak "
              << batch->total_peak_kv_bytes(pass_cfg.num_layers) << "B)"
              << " preempt=" << (pass_cfg.serving.preempt ? "on" : "off")
              << " kv-evict=" << to_string(pass_cfg.serving.kv_evict)
              << " kv-share=" << (pass_cfg.serving.kv_share ? "on" : "off")
              << "\n";
  }
  out << "\n";

  const scenario::BatchStats stats = pass->run(0, opt.verbose);
  stats.print(out);
  if (opt.print_energy) {
    estimate_energy(EnergyConfig{}, opt.cfg, stats.total).print(out);
  }
  if (opt.print_counters) {
    stats.total.counters.print(out, "  ");
  }
  return export_results(opt, stats.per_op, out, err);
}

int run(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  if (opt.op == "batch") {
    return run_batch(opt, out, err);
  }
  // Every stage runs on a fresh machine, so the stages are independent and
  // the pipeline total is the plain sum of the per-stage runs.
  std::vector<ExperimentSpec> specs;
  for (Workload& wl : build_workloads(opt)) {
    std::string name = to_string(wl.op.kind) + "/" + wl.op.model.name;
    specs.push_back({std::move(name), opt.cfg, std::move(wl)});
  }
  const std::vector<ExperimentResult> results =
      run_experiments(specs, /*threads=*/0, opt.verbose);

  out << "machine: " << opt.cfg.summary() << "\n";
  Cycle total_cycles = 0;
  double total_seconds = 0.0;
  for (const auto& r : results) {
    out << "\n== " << r.name << " ==\n";
    r.stats.print(out);
    if (opt.print_energy) {
      estimate_energy(EnergyConfig{}, opt.cfg, r.stats).print(out);
    }
    if (opt.print_counters) {
      r.stats.counters.print(out, "  ");
    }
    total_cycles += r.stats.cycles;
    total_seconds += r.stats.seconds();
  }
  if (results.size() > 1) {
    out << "\npipeline total: " << total_cycles << " cycles ("
              << total_seconds * 1e3 << " ms simulated)\n";
  }

  return export_results(opt, results, out, err);
}

}  // namespace

int cli_main(const std::vector<std::string_view>& args, std::ostream& out,
             std::ostream& err) {
  const ParseResult parsed = parse_cli_options(args);
  if (const auto stop = report_usage_stop(parsed.help_requested, parsed.error,
                                          cli_usage(), out, err)) {
    return *stop;
  }
  try {
    return run(*parsed.options, out, err);
  } catch (const std::exception& e) {
    err << "simulation failed: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace llamcat
