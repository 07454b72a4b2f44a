#include "sim/options.hpp"

#include <charconv>
#include <sstream>
#include <utility>

namespace llamcat {

namespace {

/// Parses an unsigned integer; nullopt on any trailing garbage.
template <typename T>
std::optional<T> parse_uint(std::string_view s) {
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

/// "256,512,1024" -> vector of integers; nullopt on any bad entry (zero
/// entries are rejected unless `allow_zero` - arrival cycles may be 0,
/// sequence lengths and step counts may not).
std::optional<std::vector<std::uint64_t>> parse_uint_list(
    std::string_view s, bool allow_zero = false) {
  std::vector<std::uint64_t> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const auto v = parse_uint<std::uint64_t>(s.substr(0, comma));
    if (!v || (*v == 0 && !allow_zero)) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
    if (s.empty()) return std::nullopt;  // trailing comma
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<double> parse_double(std::string_view s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(std::string(s), &pos);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<ArbPolicy> arb_policy_from_string(std::string_view s) {
  if (s == "fcfs") return ArbPolicy::kFcfs;
  if (s == "B" || s == "b" || s == "balanced") return ArbPolicy::kBalanced;
  if (s == "MA" || s == "ma") return ArbPolicy::kMa;
  if (s == "BMA" || s == "bma") return ArbPolicy::kBma;
  if (s == "cobrra") return ArbPolicy::kCobrra;
  if (s == "mrpb") return ArbPolicy::kMrpb;
  if (s == "oracle") return ArbPolicy::kOracle;
  if (s == "random") return ArbPolicy::kRandom;
  return std::nullopt;
}

std::optional<ThrottlePolicy> throttle_policy_from_string(
    std::string_view s) {
  if (s == "unopt" || s == "none") return ThrottlePolicy::kNone;
  if (s == "dyncta") return ThrottlePolicy::kDyncta;
  if (s == "lcs") return ThrottlePolicy::kLcs;
  if (s == "dynmg") return ThrottlePolicy::kDynMg;
  return std::nullopt;
}

std::optional<RespArbPolicy> resp_arb_from_string(std::string_view s) {
  if (s == "response-first") return RespArbPolicy::kResponseFirst;
  if (s == "request-first") return RespArbPolicy::kRequestFirst;
  return std::nullopt;
}

std::optional<TbDispatch> dispatch_from_string(std::string_view s) {
  if (s == "static") return TbDispatch::kStaticBlocked;
  if (s == "wave") return TbDispatch::kPartitionedStealing;
  if (s == "global") return TbDispatch::kGlobalQueue;
  return std::nullopt;
}

std::optional<RequestDispatch> request_dispatch_from_string(
    std::string_view s) {
  if (s == "shared") return RequestDispatch::kShared;
  if (s == "interleave") return RequestDispatch::kInterleave;
  if (s == "partitioned") return RequestDispatch::kPartitioned;
  return std::nullopt;
}

std::optional<FuseOrder> fuse_order_from_string(std::string_view s) {
  if (s == "rr" || s == "round-robin") return FuseOrder::kRoundRobin;
  if (s == "concat") return FuseOrder::kConcat;
  return std::nullopt;
}

std::optional<ExecutionMode> execution_mode_from_string(std::string_view s) {
  if (s == "independent") return ExecutionMode::kIndependent;
  if (s == "coscheduled") return ExecutionMode::kCoScheduled;
  if (s == "continuous") return ExecutionMode::kContinuous;
  return std::nullopt;
}

std::optional<AdmitPolicy> admit_policy_from_string(std::string_view s) {
  if (s == "none") return AdmitPolicy::kNone;
  if (s == "fcfs") return AdmitPolicy::kFcfs;
  if (s == "srf" || s == "shortest" || s == "shortest-remaining") {
    return AdmitPolicy::kShortestRemaining;
  }
  return std::nullopt;
}

std::optional<KvEvictPolicy> kv_evict_policy_from_string(std::string_view s) {
  if (s == "none") return KvEvictPolicy::kNone;
  if (s == "cold-blocks" || s == "cold") return KvEvictPolicy::kColdBlocks;
  return std::nullopt;
}

std::optional<ReplPolicy> repl_policy_from_string(std::string_view s) {
  if (s == "lru") return ReplPolicy::kLru;
  if (s == "tree-plru" || s == "plru") return ReplPolicy::kTreePlru;
  if (s == "random") return ReplPolicy::kRandom;
  if (s == "srrip") return ReplPolicy::kSrrip;
  if (s == "fifo") return ReplPolicy::kFifo;
  return std::nullopt;
}

std::optional<BypassPolicy> bypass_policy_from_string(std::string_view s) {
  if (s == "none") return BypassPolicy::kNone;
  if (s == "all") return BypassPolicy::kAll;
  if (s == "prob" || s == "probabilistic") return BypassPolicy::kProbabilistic;
  if (s == "reuse" || s == "reuse-history") return BypassPolicy::kReuseHistory;
  return std::nullopt;
}

std::optional<ModelShape> model_from_string(std::string_view s) {
  if (s == "llama3-70b" || s == "70b") return ModelShape::llama3_70b();
  if (s == "llama3-405b" || s == "405b") return ModelShape::llama3_405b();
  if (s == "llama3-8b" || s == "8b") return ModelShape::llama3_8b();
  if (s == "gemma2-27b" || s == "27b") return ModelShape::gemma2_27b();
  if (s == "qwen2-72b" || s == "72b") return ModelShape::qwen2_72b();
  return std::nullopt;
}

std::optional<TrafficProcess> traffic_process_from_string(
    std::string_view s) {
  if (s == "poisson") return TrafficProcess::kPoisson;
  if (s == "bursty") return TrafficProcess::kBursty;
  if (s == "diurnal") return TrafficProcess::kDiurnal;
  return std::nullopt;
}

std::optional<TrafficDist> traffic_dist_from_string(std::string_view s) {
  if (s == "uniform" || s == "U") return TrafficDist::kUniform;
  if (s == "lognormal" || s == "LN") return TrafficDist::kLognormal;
  return std::nullopt;
}

std::optional<PolicyCombo> policy_combo_from_string(std::string_view s) {
  PolicyCombo combo;
  const std::size_t plus = s.find('+');
  const std::string_view thr_part = s.substr(0, plus);
  const auto thr = throttle_policy_from_string(thr_part);
  if (!thr) {
    // Allow a bare arbitration policy ("BMA" == "unopt+BMA").
    if (plus != std::string_view::npos) return std::nullopt;
    const auto arb_only = arb_policy_from_string(s);
    if (!arb_only) return std::nullopt;
    combo.arb = *arb_only;
    return combo;
  }
  combo.throttle = *thr;
  if (plus != std::string_view::npos) {
    const auto arb = arb_policy_from_string(s.substr(plus + 1));
    if (!arb) return std::nullopt;
    combo.arb = *arb;
  }
  return combo;
}

std::string cli_usage() {
  return R"(llamcat_cli - run one LLaMCAT simulation (Table 5 machine by default)

usage: llamcat_cli [--flag=value ...]

workload
  --model=NAME       llama3-70b (default) | llama3-405b | llama3-8b |
                     gemma2-27b | qwen2-72b
  --op=KIND          logit (default) | attend | gemv | decode | batch
                     (decode = Logit followed by Attend; batch = the
                     scenario subsystem's multi-request decode pass)
  --seq=N            sequence length L (default 4096)
  --gemv-rows=N      gemv only: weight-matrix rows (default 8192)
  --gemv-cols=N      gemv only: weight-matrix columns (default 4096)

batch scenario (--op=batch)
  --requests=N       concurrent decode requests (default 2)
  --layers=N         decode layers per request (default 2)
  --seqs=A,B,...     per-request sequence lengths (overrides --requests and
                     --seq; one request per entry)
  --no-gemv          drop the per-layer projection/FFN GEMV stage
  --mode=M           independent (default): every operator in its own
                     System, stats summed | coscheduled: one fused System
                     per layer-stage wave - requests contend for the
                     shared LLC, per-request stats by address attribution |
                     continuous: one long-lived streaming System - each
                     request advances the moment its own stage completes,
                     arrivals are admitted mid-pass, per-request latency
                     and makespan are reported
  --arrivals=A,B,..  continuous only: per-request arrival cycles (one per
                     request, or one value broadcast; default all 0)
  --steps=N[,M,..]   decode steps (tokens) per request (broadcast like
                     --arrivals; default 1)
  --admit-policy=P   continuous only: serving-queue admission discipline:
                     none (default: every arrival admitted unconditionally)
                     | fcfs (arrival order, head-of-line blocks on the KV
                     budget) | srf (shortest-remaining-first)
  --kv-budget=N      continuous only: aggregate peak-KV-footprint budget in
                     bytes (0 = unlimited); arrivals queue (never drop)
                     while the resident KV footprint would exceed it;
                     requires --admit-policy=fcfs|srf
  --preempt          continuous only: evict a running request at a stage
                     boundary when a much-shorter request co-runs (its KV
                     stays resident, it re-enters the serving queue);
                     requires --admit-policy=fcfs|srf
  --kv-evict=P       paged KV on preemption: none (default: preempted KV
                     stays resident, PR-4-exact) | cold-blocks (swap the
                     preempted request's cold KV blocks to a modeled host
                     tier - freeing budget bytes immediately - and charge
                     a refetch at resume); requires --preempt and a finite
                     --kv-budget
  --kv-block-bytes=N cold-blocks only: KV block size in bytes, a
                     multiple of 64 (default 64, the line granule)
  --refetch-cost=N   cold-blocks only: resume refetch price in cycles per
                     block (default block_bytes/8: an ~8 B/cycle modeled
                     host link)
  --kv-share=S       continuous only: cross-request KV prefix reuse: off
                     (default: every request's KV is private, byte-identical
                     to the pre-pool engine) | on (requests in the same
                     --prefix-groups group share the KV blocks of their
                     common prefix - each unique block charges the budget
                     once, eviction respects the block refcounts);
                     --kv-block-bytes sets the sharing granule
  --prefix-groups=G,..  kv-share only: per-request prefix-group id
                     (broadcast like --arrivals); requires --prefix-tokens
  --prefix-tokens=N,..  kv-share only: tokens of the shared prefix per
                     request (broadcast; 0 keeps that request private;
                     otherwise must not exceed the request's --seqs length)
  --interleave=I     co-admitted TB fusing: rr (default) | concat
  --req-dispatch=R   request-aware core dispatch for fused sources:
                     shared (default) | interleave | partitioned

open-loop traffic (--op=batch --mode=continuous; scenario/traffic.hpp)
  --traffic=P        generate the request list from a seeded arrival
                     process instead of hand-building it: poisson | bursty
                     | diurnal (--requests supplies the count; conflicts
                     with --seqs/--arrivals/--steps/--prefix-*)
  --traffic-seed=N   generator seed, independent of --seed (default 1)
  --traffic-gap=N    mean inter-arrival gap in cycles (default 20000; the
                     offered-load knob: rate = 1/gap)
  --traffic-seq=L,H  sequence-length range (default 64,512; both multiples
                     of the 32-token mapper granule)
  --traffic-seq-dist=D  uniform (default) | lognormal (clamped, log-space
                     median at the geometric midpoint of the range)
  --traffic-sigma=F  lognormal log-space sigma (default 0.5)
  --traffic-steps=L,H   decode-steps range (default 1,4)
  --traffic-groups=N Zipf-popular prefix groups (default 0 = private batch;
                     takes effect under --kv-share=on)
  --traffic-zipf=F   Zipf skew of group popularity (default 1.0)
  --traffic-share-pct=N  percent of requests carrying a prefix group
                     (default 75)

trace record/replay (versioned text format; docs/workloads.md)
  --trace-out=PATH   record the request list this run used as a trace
  --trace-in=PATH    replay a recorded trace as the batch (replaces
                     --traffic and every per-request workload flag)

policy
  --policy=COMBO     throttle+arbitration, e.g. dynmg+BMA, dyncta, unopt+MA,
                     BMA (bare arbitration = unopt+ARB; default unopt+fcfs)
  --resp-arb=P       response-first (default) | request-first
  --dispatch=D       static (default) | wave | global

machine overrides (defaults are the paper's Table 5)
  --cores=N          number of vector cores
  --llc-mb=N         total LLC capacity in MiB
  --slices=N         LLC slice count
  --mshr-entries=N   MSHR numEntry per slice
  --mshr-targets=N   MSHR numTarget per entry
  --repl=P           LLC replacement: lru | tree-plru | random | srrip | fifo
  --bypass=P         LLC fill bypass: none | all | prob | reuse
  --bypass-keep-p=F  keep probability for --bypass=prob (default 0.5)
  --seed=N           simulation seed (default 1)

output
  --csv=PATH         append-style CSV export of the run
  --json=PATH        JSON export (includes every counter)
  --digest           batch only: print nothing but the canonical
                     batch_stats_digest (two runs are equivalent iff their
                     digests match - the scripted replay check)
  --counters         print every merged component counter
  --energy           print the energy-model breakdown
  --verbose          progress to stderr
  --help             this text
)";
}

ParseResult parse_cli_options(const std::vector<std::string_view>& args) {
  ParseResult result;
  CliOptions opt;
  opt.cfg = SimConfig::table5();
  std::uint64_t llc_mb = opt.cfg.llc.size_bytes >> 20;

  auto fail = [&result](const std::string& msg) {
    result.error = msg;
    return result;
  };
  // Last --traffic-* knob seen, for the "requires --traffic" diagnostic.
  const char* traffic_knob = nullptr;

  for (const std::string_view arg : args) {
    if (arg == "--help" || arg == "-h") {
      result.help_requested = true;
      return result;
    }
    if (arg == "--counters") {
      opt.print_counters = true;
      continue;
    }
    if (arg == "--no-gemv") {
      opt.batch_gemv = false;
      continue;
    }
    if (arg == "--preempt") {
      opt.batch_preempt = true;
      continue;
    }
    if (arg == "--digest") {
      opt.digest_only = true;
      continue;
    }
    if (arg == "--energy") {
      opt.print_energy = true;
      continue;
    }
    if (arg == "--verbose") {
      opt.verbose = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      return fail("unrecognized argument: " + std::string(arg));
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string_view val = arg.substr(eq + 1);

    if (key == "model") {
      const auto m = model_from_string(val);
      if (!m) return fail("unknown model: " + std::string(val));
      opt.model = *m;
    } else if (key == "op") {
      if (val != "logit" && val != "attend" && val != "gemv" &&
          val != "decode" && val != "batch") {
        return fail("unknown op: " + std::string(val));
      }
      opt.op = std::string(val);
    } else if (key == "seq") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0) return fail("bad --seq");
      opt.seq_len = *v;
    } else if (key == "gemv-rows") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0) return fail("bad --gemv-rows");
      opt.gemv_rows = *v;
    } else if (key == "gemv-cols") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) return fail("bad --gemv-cols");
      opt.gemv_cols = *v;
    } else if (key == "requests") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) {
        return fail("bad --requests: \"" + std::string(val) +
                    "\" (expect a positive request count)");
      }
      opt.batch_requests = *v;
    } else if (key == "layers") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) {
        return fail("bad --layers: \"" + std::string(val) +
                    "\" (expect a positive layer count)");
      }
      opt.batch_layers = *v;
    } else if (key == "seqs") {
      const auto v = parse_uint_list(val);
      if (!v) {
        return fail("bad --seqs: \"" + std::string(val) +
                    "\" (expect a comma-separated list of positive sequence "
                    "lengths, e.g. 256,512,1024)");
      }
      opt.batch_seq_lens = *v;
    } else if (key == "arrivals") {
      const auto v = parse_uint_list(val, /*allow_zero=*/true);
      if (!v) {
        return fail("bad --arrivals: \"" + std::string(val) +
                    "\" (expect a comma-separated list of arrival cycles, "
                    "e.g. 0,0,50000; zeros are allowed)");
      }
      opt.batch_arrivals = *v;
    } else if (key == "steps") {
      const auto v = parse_uint_list(val);
      if (!v) {
        return fail("bad --steps: \"" + std::string(val) +
                    "\" (expect a positive decode-step count or list, e.g. "
                    "4 or 4,1,2)");
      }
      for (const std::uint64_t steps : *v) {
        if (steps > 0xFFFFFFFFull) {
          return fail("bad --steps: " + std::to_string(steps) +
                      " exceeds the 32-bit decode-step limit");
        }
      }
      opt.batch_steps = *v;
    } else if (key == "mode") {
      const auto m = execution_mode_from_string(val);
      if (!m) return fail("unknown mode: " + std::string(val));
      opt.batch_mode = *m;
    } else if (key == "admit-policy") {
      const auto p = admit_policy_from_string(val);
      if (!p) {
        return fail("unknown admit-policy: \"" + std::string(val) +
                    "\" (expect none, fcfs or srf)");
      }
      opt.batch_admit = *p;
    } else if (key == "kv-budget") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v) {
        return fail("bad --kv-budget: \"" + std::string(val) +
                    "\" (expect a byte count; 0 = unlimited)");
      }
      opt.batch_kv_budget = *v;
    } else if (key == "kv-evict") {
      const auto p = kv_evict_policy_from_string(val);
      if (!p) {
        return fail("unknown kv-evict: \"" + std::string(val) +
                    "\" (expect none or cold-blocks)");
      }
      opt.batch_kv_evict = *p;
    } else if (key == "kv-block-bytes") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0 || *v % kLineBytes != 0) {
        return fail("bad --kv-block-bytes: \"" + std::string(val) +
                    "\" (expect a positive multiple of the " +
                    std::to_string(kLineBytes) + "-byte cache line)");
      }
      opt.batch_kv_block_bytes = *v;
    } else if (key == "refetch-cost") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0) {
        return fail("bad --refetch-cost: \"" + std::string(val) +
                    "\" (expect a positive cycles-per-block price; omit the "
                    "flag for the modeled host-link default)");
      }
      opt.batch_refetch_cost = *v;
    } else if (key == "kv-share") {
      if (val == "on") {
        opt.batch_kv_share = true;
      } else if (val == "off") {
        opt.batch_kv_share = false;
      } else {
        return fail("bad --kv-share: \"" + std::string(val) +
                    "\" (expect on or off)");
      }
    } else if (key == "prefix-groups") {
      const auto v = parse_uint_list(val, /*allow_zero=*/true);
      if (!v) {
        return fail("bad --prefix-groups: \"" + std::string(val) +
                    "\" (expect a comma-separated list of group ids, e.g. "
                    "0,0,1)");
      }
      opt.batch_prefix_groups = *v;
    } else if (key == "prefix-tokens") {
      const auto v = parse_uint_list(val, /*allow_zero=*/true);
      if (!v) {
        return fail("bad --prefix-tokens: \"" + std::string(val) +
                    "\" (expect a comma-separated list of shared-prefix "
                    "token counts; 0 keeps a request private)");
      }
      opt.batch_prefix_tokens = *v;
    } else if (key == "traffic") {
      const auto p = traffic_process_from_string(val);
      if (!p) {
        return fail("unknown traffic process: \"" + std::string(val) +
                    "\" (expect poisson, bursty or diurnal)");
      }
      opt.traffic = true;
      opt.traffic_process = *p;
    } else if (key == "traffic-seed") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v) return fail("bad --traffic-seed");
      opt.traffic_seed = *v;
      traffic_knob = "--traffic-seed";
    } else if (key == "traffic-gap") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0) {
        return fail("bad --traffic-gap: \"" + std::string(val) +
                    "\" (expect a positive mean inter-arrival gap in "
                    "cycles)");
      }
      opt.traffic_gap = *v;
      traffic_knob = "--traffic-gap";
    } else if (key == "traffic-seq") {
      const auto v = parse_uint_list(val);
      if (!v || v->size() != 2 || (*v)[0] > (*v)[1]) {
        return fail("bad --traffic-seq: \"" + std::string(val) +
                    "\" (expect LO,HI with LO <= HI, e.g. 64,512)");
      }
      opt.traffic_seq_min = (*v)[0];
      opt.traffic_seq_max = (*v)[1];
      traffic_knob = "--traffic-seq";
    } else if (key == "traffic-seq-dist") {
      const auto d = traffic_dist_from_string(val);
      if (!d) {
        return fail("unknown traffic-seq-dist: \"" + std::string(val) +
                    "\" (expect uniform or lognormal)");
      }
      opt.traffic_seq_dist = *d;
      traffic_knob = "--traffic-seq-dist";
    } else if (key == "traffic-sigma") {
      const auto v = parse_double(val);
      if (!v || *v <= 0.0) return fail("bad --traffic-sigma");
      opt.traffic_sigma = *v;
      traffic_knob = "--traffic-sigma";
    } else if (key == "traffic-steps") {
      const auto v = parse_uint_list(val);
      if (!v || v->size() != 2 || (*v)[0] > (*v)[1] ||
          (*v)[1] > 0xFFFFFFFFull) {
        return fail("bad --traffic-steps: \"" + std::string(val) +
                    "\" (expect LO,HI with LO <= HI, e.g. 1,4)");
      }
      opt.traffic_steps_min = static_cast<std::uint32_t>((*v)[0]);
      opt.traffic_steps_max = static_cast<std::uint32_t>((*v)[1]);
      traffic_knob = "--traffic-steps";
    } else if (key == "traffic-groups") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v) return fail("bad --traffic-groups");
      opt.traffic_groups = *v;
      traffic_knob = "--traffic-groups";
    } else if (key == "traffic-zipf") {
      const auto v = parse_double(val);
      if (!v || *v < 0.0) return fail("bad --traffic-zipf");
      opt.traffic_zipf = *v;
      traffic_knob = "--traffic-zipf";
    } else if (key == "traffic-share-pct") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v > 100) {
        return fail("bad --traffic-share-pct: \"" + std::string(val) +
                    "\" (expect a percentage 0..100)");
      }
      opt.traffic_share_pct = *v;
      traffic_knob = "--traffic-share-pct";
    } else if (key == "trace-out") {
      opt.trace_out_path = std::string(val);
    } else if (key == "trace-in") {
      opt.trace_in_path = std::string(val);
    } else if (key == "interleave") {
      const auto f = fuse_order_from_string(val);
      if (!f) return fail("unknown interleave: " + std::string(val));
      opt.batch_interleave = *f;
    } else if (key == "req-dispatch") {
      const auto r = request_dispatch_from_string(val);
      if (!r) return fail("unknown req-dispatch: " + std::string(val));
      opt.cfg.core.request_dispatch = *r;
    } else if (key == "policy") {
      const auto combo = policy_combo_from_string(val);
      if (!combo) return fail("unknown policy combo: " + std::string(val));
      opt.cfg.throttle.policy = combo->throttle;
      opt.cfg.arb.policy = combo->arb;
      if (combo->arb == ArbPolicy::kCobrra) {
        opt.cfg.llc.resp_arb = RespArbPolicy::kRequestFirst;
      }
    } else if (key == "resp-arb") {
      const auto p = resp_arb_from_string(val);
      if (!p) return fail("unknown resp-arb: " + std::string(val));
      opt.cfg.llc.resp_arb = *p;
    } else if (key == "dispatch") {
      const auto d = dispatch_from_string(val);
      if (!d) return fail("unknown dispatch: " + std::string(val));
      opt.cfg.core.tb_dispatch = *d;
    } else if (key == "cores") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) return fail("bad --cores");
      opt.cfg.core.num_cores = *v;
    } else if (key == "llc-mb") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v || *v == 0) return fail("bad --llc-mb");
      llc_mb = *v;
    } else if (key == "slices") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) return fail("bad --slices");
      opt.cfg.llc.num_slices = *v;
    } else if (key == "mshr-entries") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) return fail("bad --mshr-entries");
      opt.cfg.llc.mshr_entries = *v;
    } else if (key == "mshr-targets") {
      const auto v = parse_uint<std::uint32_t>(val);
      if (!v || *v == 0) return fail("bad --mshr-targets");
      opt.cfg.llc.mshr_targets = *v;
    } else if (key == "repl") {
      const auto p = repl_policy_from_string(val);
      if (!p) return fail("unknown repl: " + std::string(val));
      opt.cfg.llc.repl = *p;
    } else if (key == "bypass") {
      const auto p = bypass_policy_from_string(val);
      if (!p) return fail("unknown bypass: " + std::string(val));
      opt.cfg.llc.bypass.policy = *p;
    } else if (key == "bypass-keep-p") {
      const auto v = parse_double(val);
      if (!v || *v < 0.0 || *v > 1.0) return fail("bad --bypass-keep-p");
      opt.cfg.llc.bypass.keep_probability = *v;
    } else if (key == "seed") {
      const auto v = parse_uint<std::uint64_t>(val);
      if (!v) return fail("bad --seed");
      opt.cfg.seed = *v;
    } else if (key == "csv") {
      opt.csv_path = std::string(val);
    } else if (key == "json") {
      opt.json_path = std::string(val);
    } else {
      return fail("unknown flag: --" + std::string(key));
    }
  }

  opt.cfg.llc.size_bytes = llc_mb << 20;

  // Open-loop traffic / trace replay cross-checks.
  if (opt.traffic && !opt.trace_in_path.empty()) {
    return fail("--traffic and --trace-in conflict (generate a workload or "
                "replay one, not both; record a generated one with "
                "--trace-out)");
  }
  if (!opt.traffic && traffic_knob != nullptr) {
    return fail(std::string(traffic_knob) +
                " requires --traffic=<process> (it shapes the generated "
                "workload)");
  }
  if (opt.traffic || !opt.trace_in_path.empty()) {
    const char* source = opt.traffic ? "--traffic" : "--trace-in";
    if (opt.op != "batch" || opt.batch_mode != ExecutionMode::kContinuous) {
      return fail(std::string(source) +
                  " requires --op=batch --mode=continuous (an open-loop "
                  "workload is a stream of timed arrivals)");
    }
    if (!opt.batch_seq_lens.empty() || !opt.batch_arrivals.empty() ||
        !opt.batch_steps.empty() || !opt.batch_prefix_groups.empty() ||
        !opt.batch_prefix_tokens.empty()) {
      return fail(std::string(source) +
                  " conflicts with --seqs/--arrivals/--steps/--prefix-* "
                  "(the workload source supplies every per-request field)");
    }
  }
  if (!opt.trace_out_path.empty() && opt.op != "batch") {
    return fail("--trace-out requires --op=batch (only batch runs have a "
                "request list to record)");
  }
  if (opt.digest_only && opt.op != "batch") {
    return fail("--digest requires --op=batch (the digest is defined over a "
                "batch run's stats)");
  }

  // Cross-field batch-scenario checks: catch arity mismatches and
  // mode-dependent flags here, with the flag names in the message, instead
  // of letting the scenario layer throw something less actionable.
  const std::size_t n_requests = opt.batch_seq_lens.empty()
                                     ? opt.batch_requests
                                     : opt.batch_seq_lens.size();
  if (!opt.batch_arrivals.empty() &&
      opt.batch_mode != ExecutionMode::kContinuous) {
    return fail("--arrivals requires --mode=continuous (the barrier modes "
                "have no notion of mid-pass admission)");
  }
  if (opt.batch_admit != AdmitPolicy::kNone &&
      opt.batch_mode != ExecutionMode::kContinuous) {
    return fail("--admit-policy requires --mode=continuous (the barrier "
                "modes have no serving queue)");
  }
  if (opt.batch_kv_budget != 0 && opt.batch_admit == AdmitPolicy::kNone) {
    return fail("--kv-budget requires --admit-policy=fcfs|srf "
                "(--admit-policy=none admits unconditionally, so a budget "
                "could never be enforced)");
  }
  if (opt.batch_preempt && opt.batch_admit == AdmitPolicy::kNone) {
    return fail("--preempt requires --admit-policy=fcfs|srf (a preempted "
                "request re-enters the serving queue, which policy none "
                "does not have)");
  }
  if (opt.batch_kv_evict != KvEvictPolicy::kNone) {
    if (!opt.batch_preempt) {
      return fail("--kv-evict=cold-blocks requires --preempt (blocks are "
                  "swapped out when a running request is preempted at a "
                  "stage boundary, which never happens without preemption)");
    }
    if (opt.batch_kv_budget == 0) {
      return fail("--kv-evict=cold-blocks requires a finite --kv-budget "
                  "(with an unlimited budget there is no pressure to "
                  "relieve, so eviction would only add refetch cost)");
    }
  } else {
    if (opt.batch_kv_block_bytes != 0 && !opt.batch_kv_share) {
      return fail("--kv-block-bytes requires --kv-evict=cold-blocks or "
                  "--kv-share=on (the block pool is the only consumer of "
                  "the block size)");
    }
    if (opt.batch_refetch_cost != 0) {
      return fail("--refetch-cost requires --kv-evict=cold-blocks (nothing "
                  "is ever refetched without paged eviction)");
    }
  }
  if (opt.batch_kv_share && opt.batch_mode != ExecutionMode::kContinuous) {
    return fail("--kv-share requires --mode=continuous (the barrier modes "
                "admit everything at once, so there is no serving-time "
                "block pool to share through)");
  }
  if (!opt.batch_prefix_groups.empty() || !opt.batch_prefix_tokens.empty()) {
    if (!opt.batch_kv_share) {
      return fail("--prefix-groups/--prefix-tokens require --kv-share=on "
                  "(prefix identity is ignored while sharing is off)");
    }
    if (opt.batch_prefix_groups.empty() || opt.batch_prefix_tokens.empty()) {
      return fail("--prefix-groups and --prefix-tokens require each other "
                  "(a group without a prefix length shares nothing)");
    }
    for (const std::uint64_t g : opt.batch_prefix_groups) {
      if (g >= 0xFFFFFFFFull) {
        return fail("bad --prefix-groups: group ids must fit 32 bits "
                    "(0xFFFFFFFF is the no-group sentinel)");
      }
    }
  }
  const std::pair<const char*, std::size_t> arities[] = {
      {"--arrivals", opt.batch_arrivals.size()},
      {"--steps", opt.batch_steps.size()},
      {"--prefix-groups", opt.batch_prefix_groups.size()},
      {"--prefix-tokens", opt.batch_prefix_tokens.size()},
  };
  for (const auto& [flag, size] : arities) {
    if (size > 1 && size != n_requests) {
      return fail(std::string(flag) + " has " + std::to_string(size) +
                  " entries but the batch has " + std::to_string(n_requests) +
                  " requests (pass one entry per request, or a single entry "
                  "to broadcast)");
    }
  }

  try {
    opt.cfg.validate();
  } catch (const std::invalid_argument& e) {
    return fail(std::string("invalid configuration: ") + e.what());
  }
  result.options = std::move(opt);
  return result;
}

}  // namespace llamcat
