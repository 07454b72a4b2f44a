#include "cli/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

namespace llamcat {

namespace {

constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parses an unsigned integer; nullopt on any trailing garbage.
std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

/// "256,512,1024" -> vector of integers, each in [lo, hi]; nullopt on any
/// bad entry, an empty entry or an empty list.
std::optional<std::vector<std::uint64_t>> parse_uint_list(
    std::string_view s, std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const auto v = parse_uint(s.substr(0, comma));
    if (!v || *v < lo || *v > hi) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
    if (s.empty()) return std::nullopt;  // trailing comma
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// Parses a finite double; nullopt on trailing garbage, NaN or infinity.
std::optional<double> parse_double(std::string_view s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(std::string(s), &pos);
    if (pos != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

/// "a positive 32-bit integer" / "integers in [0, 100]" for [lo, hi].
std::string uint_text(std::uint64_t lo, std::uint64_t hi, bool plural) {
  const char* bits = hi == kU32 ? "32" : hi == kU64 ? "64" : nullptr;
  if (bits == nullptr || lo > 1) {
    return std::string(plural ? "integers" : "an integer") + " in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  const char* article = plural ? "" : lo == 0 ? "an " : "a ";
  return std::string(article) + (lo == 0 ? "unsigned " : "positive ") +
         bits + "-bit integer" + (plural ? "s" : "");
}

/// "a, b, c": the canonical name of every value in `table`.
template <typename T>
std::string canonical_names(NameTable<T> table) {
  std::string out;
  for (auto row = table.begin(); row != table.end(); ++row) {
    const auto same = [&](const EnumName<T>& r) {
      return r.value == row->value;
    };
    if (std::find_if(table.begin(), row, same) != row) continue;  // an alias
    out += (out.empty() ? "" : ", ") + std::string(row->name);
  }
  return out;
}

// -- bindings ----------------------------------------------------------------

FlagBinding on(bool* field, bool value = true) {
  return {FlagKind::kSwitch, [=](std::string_view) {
            *field = value;
            return true;
          }};
}

FlagBinding path(std::string* field) {
  return {FlagKind::kPath, [=](std::string_view s) {
            *field = s;
            return true;
          }};
}

/// An integer in [lo, hi] that is a multiple of `multiple`.
template <typename T>
FlagBinding uint(T* field, std::uint64_t lo,
                 std::uint64_t hi = std::numeric_limits<T>::max(),
                 std::uint64_t multiple = 1) {
  return {FlagKind::kUint,
          [=](std::string_view s) {
            const auto v = parse_uint(s);
            if (!v || *v < lo || *v > hi || *v % multiple != 0) return false;
            *field = static_cast<T>(*v);
            return true;
          },
          multiple == 1 ? "expect " + uint_text(lo, hi, false)
                        : "expect a positive multiple of " +
                              std::to_string(multiple)};
}

/// A MiB count stored as bytes: the byte count must fit 64 bits.
FlagBinding mib(std::uint64_t* bytes) {
  FlagBinding b = uint(bytes, 1, kU64 >> 20);
  b.set = [bytes, set = b.set](std::string_view s) {
    if (!set(s)) return false;
    *bytes <<= 20;
    return true;
  };
  return b;
}

/// Comma-separated integers in [lo, hi], one per request or one to
/// broadcast (--seqs instead sets the request count).
FlagBinding list(std::vector<std::uint64_t>* field, std::uint64_t lo,
                 std::uint64_t hi) {
  return {FlagKind::kUintList,
          [=](std::string_view s) {
            auto v = parse_uint_list(s, lo, hi);
            if (v) *field = std::move(*v);
            return v.has_value();
          },
          "expect a comma-separated list of " + uint_text(lo, hi, true),
          field};
}

/// A "LO,HI" pair of positive integers with LO <= HI.
template <typename T>
FlagBinding range(T* lo_field, T* hi_field) {
  constexpr std::uint64_t hi = std::numeric_limits<T>::max();
  return {FlagKind::kUintList,
          [=](std::string_view s) {
            const auto v = parse_uint_list(s, 1, hi);
            if (!v || v->size() != 2 || (*v)[0] > (*v)[1]) return false;
            *lo_field = static_cast<T>((*v)[0]);
            *hi_field = static_cast<T>((*v)[1]);
            return true;
          },
          "expect LO,HI with LO <= HI, both " + uint_text(1, hi, true)};
}

/// A finite number in [lo, hi] (in (lo, hi] when `lo_open`).
FlagBinding real(double* field, double lo, double hi, bool lo_open = false) {
  std::ostringstream expect;
  expect << "expect a finite number in " << (lo_open ? "(" : "[") << lo
         << ", " << hi << (hi == kInf ? ")" : "]");
  return {FlagKind::kDouble,
          [=](std::string_view s) {
            const auto v = parse_double(s);
            if (!v || !(lo_open ? *v > lo : *v >= lo) || !(*v <= hi))
              return false;
            *field = *v;
            return true;
          },
          expect.str()};
}

/// One name of `table`; a table of factories stores what the factory makes.
template <typename T, typename V>
FlagBinding choice(V* field, NameTable<T> table) {
  return {FlagKind::kEnum,
          [=](std::string_view s) {
            const auto v = lookup_name(table, s);
            if constexpr (std::is_invocable_v<T>) {
              if (v) *field = (*v)();
            } else {
              if (v) *field = *v;
            }
            return v.has_value();
          },
          "expect one of: " + canonical_names(table)};
}

template <NamedEnum E>
FlagBinding choice(E* field) {
  return choice(field, enum_names(E{}));
}

// -- vocabularies without an enum --------------------------------------------

using ModelFactory = ModelShape (*)();
constexpr EnumName<ModelFactory> kModels[] = {
    {&ModelShape::llama3_70b, "llama3-70b"},
    {&ModelShape::llama3_70b, "70b"},
    {&ModelShape::llama3_405b, "llama3-405b"},
    {&ModelShape::llama3_405b, "405b"},
    {&ModelShape::llama3_8b, "llama3-8b"},
    {&ModelShape::llama3_8b, "8b"},
    {&ModelShape::gemma2_27b, "gemma2-27b"},
    {&ModelShape::gemma2_27b, "27b"},
    {&ModelShape::qwen2_72b, "qwen2-72b"},
    {&ModelShape::qwen2_72b, "72b"}};

constexpr EnumName<std::string_view> kOps[] = {
    {"logit", "logit"},   {"attend", "attend"}, {"gemv", "gemv"},
    {"decode", "decode"}, {"batch", "batch"}};

constexpr EnumName<bool> kOnOff[] = {{false, "off"}, {true, "on"}};

// -- --help layout ----------------------------------------------------------

constexpr std::string_view kWorkload = "workload";
constexpr std::string_view kBatch = "batch scenario (--op=batch)";
constexpr std::string_view kTraffic =
    "open-loop traffic (--op=batch --mode=continuous; scenario/traffic.hpp)";
constexpr std::string_view kTrace =
    "trace record/replay (versioned text format; docs/workloads.md)";
constexpr std::string_view kPolicy = "policy";
constexpr std::string_view kMachine =
    "machine overrides (defaults are the paper's Table 5)";
constexpr std::string_view kOutput = "output";
/// The one section of the small tables of llamcat_stress, llamcat_lint and
/// the benches.
constexpr std::string_view kOptions = "options";

/// Help text starts at column 21; a left part too long for that starts it
/// at column 24, or two spaces past the left part.
constexpr std::size_t kHelpColumn = 21;
constexpr std::size_t kWideHelpColumn = 24;

constexpr EnumName<Scale> kScaleNames[] = {{Scale::kQuick, "quick"},
                                           {Scale::kDefault, "default"},
                                           {Scale::kPaper, "paper"}};

CliFlag help_flag() {
  return {"help", "", kOptions, "this text", {FlagKind::kHelp}};
}

}  // namespace

FlagParse parse_flags(const std::vector<CliFlag>& flags,
                      const std::vector<std::string_view>& args) {
  FlagParse result;
  for (const std::string_view arg : args) {
    if (arg == "-h") {
      result.help_requested = true;
      return result;
    }
    if (arg.substr(0, 2) != "--") {
      result.positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(2, eq - 2);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [key](const CliFlag& f) { return f.name == key; });
    if (flag == flags.end()) {
      result.error = "unknown flag: --" + std::string(key);
      return result;
    }
    const FlagKind kind = flag->bind.kind;
    const bool bare = kind == FlagKind::kHelp || kind == FlagKind::kSwitch;
    if (bare != (eq == std::string_view::npos)) {
      result.error = "unrecognized argument: " + std::string(arg);
      return result;
    }
    if (kind == FlagKind::kHelp) {
      result.help_requested = true;
      return result;
    }
    const std::string_view val = bare ? "" : arg.substr(eq + 1);
    if (!flag->bind.set(val)) {
      result.error = "bad --" + std::string(key) + ": \"" + std::string(val) +
                     "\" (" + flag->bind.expect + ")";
      return result;
    }
    result.given.push_back(&*flag);
  }
  return result;
}

std::string flags_usage(std::string_view header,
                        const std::vector<CliFlag>& flags) {
  std::string out(header);
  std::string_view section;
  for (const CliFlag& f : flags) {
    if (f.section != section) {
      section = f.section;
      out.append("\n").append(section).append("\n");
    }
    std::string left = "  --" + std::string(f.name);
    if (!f.metavar.empty()) left.append("=").append(f.metavar);
    left.resize(left.size() < kHelpColumn
                    ? kHelpColumn
                    : std::max(kWideHelpColumn, left.size() + 2),
                ' ');
    std::string help(f.help);
    for (std::size_t nl = 0; (nl = help.find('\n', nl)) != std::string::npos;)
      help.insert(++nl, kHelpColumn, ' ');
    out += left + help + "\n";
  }
  return out;
}

std::optional<int> report_usage_stop(bool help_requested,
                                     std::string_view error,
                                     std::string_view usage, std::ostream& out,
                                     std::ostream& err) {
  if (help_requested) {
    out << usage;
    return 0;
  }
  if (!error.empty()) {
    err << "error: " << error << "\n\n" << usage;
    return 2;
  }
  return std::nullopt;
}

std::optional<int> parse_command_line(
    const std::vector<CliFlag>& flags, std::string_view usage,
    const std::vector<std::string_view>& args, std::ostream& out,
    std::ostream& err, std::vector<std::string_view>* positionals) {
  FlagParse parsed = parse_flags(flags, args);
  if (parsed.error.empty() && positionals == nullptr &&
      !parsed.positionals.empty()) {
    parsed.error =
        "unrecognized argument: " + std::string(parsed.positionals.front());
  }
  if (const auto stop = report_usage_stop(parsed.help_requested, parsed.error,
                                          usage, out, err)) {
    return stop;
  }
  if (positionals != nullptr) *positionals = std::move(parsed.positionals);
  return std::nullopt;
}

std::optional<ModelShape> model_from_string(std::string_view s) {
  const auto make = lookup_name(NameTable<ModelFactory>(kModels), s);
  if (!make) return std::nullopt;
  return (*make)();
}

std::optional<PolicyCombo> policy_combo_from_string(std::string_view s) {
  const std::size_t plus = s.find('+');
  const auto thr = parse_enum<ThrottlePolicy>(s.substr(0, plus));
  if (plus == std::string_view::npos) {
    if (thr) return PolicyCombo{*thr, ArbPolicy::kFcfs};
    // A bare arbitration policy ("BMA" == "unopt+BMA").
    const auto arb = parse_enum<ArbPolicy>(s);
    if (!arb) return std::nullopt;
    return PolicyCombo{ThrottlePolicy::kNone, *arb};
  }
  const auto arb = parse_enum<ArbPolicy>(s.substr(plus + 1));
  if (!thr || !arb) return std::nullopt;
  return PolicyCombo{*thr, *arb};
}

std::vector<CliFlag> cli_flags(CliOptions& o) {
  scenario::ServingConfig& serving = o.pass.serving;
  scenario::TrafficConfig& traffic = o.traffic_cfg;
  return {
      // -- workload ----------------------------------------------------------
      {"model", "NAME", kWorkload,
       "llama3-70b (default) | llama3-405b | llama3-8b |\n"
       "gemma2-27b | qwen2-72b",
       choice(&o.model, NameTable<ModelFactory>(kModels))},
      {"op", "KIND", kWorkload,
       "logit (default) | attend | gemv | decode | batch\n"
       "(decode = Logit followed by Attend; batch = the\n"
       "scenario subsystem's multi-request decode pass)",
       choice(&o.op, NameTable<std::string_view>(kOps))},
      {"seq", "N", kWorkload, "sequence length L (default 4096)",
       uint(&o.seq_len, 1)},
      {"gemv-rows", "N", kWorkload,
       "gemv only: weight-matrix rows (default 8192)", uint(&o.gemv_rows, 1)},
      {"gemv-cols", "N", kWorkload,
       "gemv only: weight-matrix columns (default 4096)",
       uint(&o.gemv_cols, 1)},
      // -- batch scenario ----------------------------------------------------
      {"requests", "N", kBatch, "concurrent decode requests (default 2)",
       uint(&o.batch_requests, 1)},
      {"layers", "N", kBatch, "decode layers per request (default 2)",
       uint(&o.pass.num_layers, 1)},
      {"seqs", "A,B,...", kBatch,
       "per-request sequence lengths (overrides --requests and\n"
       "--seq; one request per entry)",
       list(&o.batch_seq_lens, 1, kU64)},
      {"no-gemv", "", kBatch, "drop the per-layer projection/FFN GEMV stage",
       on(&o.pass.include_gemv, false)},
      {"mode", "M", kBatch,
       "independent (default): every operator in its own\n"
       "System, stats summed | coscheduled: one fused System\n"
       "per layer-stage wave - requests contend for the\n"
       "shared LLC, per-request stats by address attribution |\n"
       "continuous: one long-lived streaming System - each\n"
       "request advances the moment its own stage completes,\n"
       "arrivals are admitted mid-pass, per-request latency\n"
       "and makespan are reported",
       choice(&o.pass.mode)},
      {"arrivals", "A,B,..", kBatch,
       "continuous only: per-request arrival cycles (one per\n"
       "request, or one value broadcast; default all 0)",
       list(&o.batch_arrivals, 0, kU64)},
      {"steps", "N[,M,..]", kBatch,
       "decode steps (tokens) per request (broadcast like\n"
       "--arrivals; default 1)",
       list(&o.batch_steps, 1, kU32)},
      {"admit-policy", "P", kBatch,
       "continuous only: serving-queue admission discipline:\n"
       "none (default: every arrival admitted unconditionally)\n"
       "| fcfs (arrival order, head-of-line blocks on the KV\n"
       "budget) | srf (shortest-remaining-first)",
       choice(&serving.policy)},
      {"kv-budget", "N", kBatch,
       "continuous only: aggregate peak-KV-footprint budget in\n"
       "bytes (0 = unlimited); arrivals queue (never drop)\n"
       "while the resident KV footprint would exceed it;\n"
       "requires --admit-policy=fcfs|srf",
       uint(&serving.kv_budget_bytes, 0)},
      {"preempt", "", kBatch,
       "continuous only: evict a running request at a stage\n"
       "boundary when a much-shorter request co-runs (its KV\n"
       "stays resident, it re-enters the serving queue);\n"
       "requires --admit-policy=fcfs|srf",
       on(&serving.preempt)},
      {"kv-evict", "P", kBatch,
       "paged KV on preemption: none (default: preempted KV\n"
       "stays resident, PR-4-exact) | cold-blocks (swap the\n"
       "preempted request's cold KV blocks to a modeled host\n"
       "tier - freeing budget bytes immediately - and charge\n"
       "a refetch at resume); requires --preempt and a finite\n"
       "--kv-budget",
       choice(&serving.kv_evict)},
      {"kv-block-bytes", "N", kBatch,
       "cold-blocks only: KV block size in bytes, a\n"
       "multiple of 64 (default 64, the line granule)",
       uint(&serving.kv_block_bytes, 1, kU64, kLineBytes)},
      {"refetch-cost", "N", kBatch,
       "cold-blocks only: resume refetch price in cycles per\n"
       "block (default block_bytes/8: an ~8 B/cycle modeled\n"
       "host link)",
       uint(&serving.refetch_cost, 1)},
      {"kv-share", "S", kBatch,
       "continuous only: cross-request KV prefix reuse: off\n"
       "(default: every request's KV is private, byte-identical\n"
       "to the pre-pool engine) | on (requests in the same\n"
       "--prefix-groups group share the KV blocks of their\n"
       "common prefix - each unique block charges the budget\n"
       "once, eviction respects the block refcounts);\n"
       "--kv-block-bytes sets the sharing granule",
       choice(&serving.kv_share, NameTable<bool>(kOnOff))},
      // Group ids stop short of 0xFFFFFFFF, the no-group sentinel.
      {"prefix-groups", "G,..", kBatch,
       "kv-share only: per-request prefix-group id\n"
       "(broadcast like --arrivals); requires --prefix-tokens",
       list(&o.batch_prefix_groups, 0, kU32 - 1)},
      {"prefix-tokens", "N,..", kBatch,
       "kv-share only: tokens of the shared prefix per\n"
       "request (broadcast; 0 keeps that request private;\n"
       "otherwise must not exceed the request's --seqs length)",
       list(&o.batch_prefix_tokens, 0, kU64)},
      {"interleave", "I", kBatch,
       "co-admitted TB fusing: rr (default) | concat",
       choice(&o.pass.interleave)},
      {"req-dispatch", "R", kBatch,
       "request-aware core dispatch for fused sources:\n"
       "shared (default) | interleave | partitioned",
       choice(&o.cfg.core.request_dispatch)},
      {"audit", "", kBatch,
       "continuous only: check every serving event against the\n"
       "invariant contract's shadow KV ledger\n"
       "(scenario/invariants.hpp); the run fails on the first\n"
       "broken invariant",
       on(&o.pass.audit)},
      // -- open-loop traffic -------------------------------------------------
      {"traffic", "P", kTraffic,
       "generate the request list from a seeded arrival\n"
       "process instead of hand-building it: poisson | bursty\n"
       "| diurnal (--requests supplies the count; conflicts\n"
       "with --seqs/--arrivals/--steps/--prefix-*)",
       choice(&traffic.process)},
      {"traffic-seed", "N", kTraffic,
       "generator seed, independent of --seed (default 1)",
       uint(&traffic.seed, 0), true},
      {"traffic-gap", "N", kTraffic,
       "mean inter-arrival gap in cycles (default 20000; the\n"
       "offered-load knob: rate = 1/gap)",
       uint(&traffic.mean_gap, 1), true},
      {"traffic-seq", "L,H", kTraffic,
       "sequence-length range (default 64,512; both multiples\n"
       "of the 32-token mapper granule)",
       range(&traffic.seq_min, &traffic.seq_max), true},
      {"traffic-seq-dist", "D", kTraffic,
       "uniform (default) | lognormal (clamped, log-space\n"
       "median at the geometric midpoint of the range)",
       choice(&traffic.seq_dist), true},
      {"traffic-sigma", "F", kTraffic,
       "lognormal log-space sigma (default 0.5)",
       real(&traffic.seq_sigma, 0.0, kInf, /*lo_open=*/true), true},
      {"traffic-steps", "L,H", kTraffic, "decode-steps range (default 1,4)",
       range(&traffic.steps_min, &traffic.steps_max), true},
      {"traffic-groups", "N", kTraffic,
       "Zipf-popular prefix groups (default 0 = private batch;\n"
       "takes effect under --kv-share=on)",
       uint(&traffic.prefix_groups, 0), true},
      {"traffic-zipf", "F", kTraffic,
       "Zipf skew of group popularity (default 1.0)",
       real(&traffic.zipf_s, 0.0, kInf), true},
      {"traffic-share-pct", "N", kTraffic,
       "percent of requests carrying a prefix group\n"
       "(default 75)",
       uint(&traffic.share_pct, 0, 100), true},
      // -- trace record/replay -----------------------------------------------
      {"trace-out", "PATH", kTrace,
       "record the request list this run used as a trace",
       path(&o.trace_out_path)},
      {"trace-in", "PATH", kTrace,
       "replay a recorded trace as the batch (replaces\n"
       "--traffic and every per-request workload flag)",
       path(&o.trace_in_path)},
      // -- policy ------------------------------------------------------------
      {"policy", "COMBO", kPolicy,
       "throttle+arbitration, e.g. dynmg+BMA, dyncta, unopt+MA,\n"
       "BMA (bare arbitration = unopt+ARB; default unopt+fcfs)",
       {FlagKind::kEnum,
        [&o](std::string_view s) {
          const auto combo = policy_combo_from_string(s);
          if (!combo) return false;
          o.cfg.throttle.policy = combo->throttle;
          o.cfg.arb.policy = combo->arb;
          return true;
        },
        "expect THROTTLE, ARB or THROTTLE+ARB; THROTTLE one of: " +
            canonical_names(enum_names(ThrottlePolicy{})) +
            "; ARB one of: " + canonical_names(enum_names(ArbPolicy{}))}},
      {"resp-arb", "P", kPolicy, "response-first (default) | request-first",
       choice(&o.cfg.llc.resp_arb)},
      {"dispatch", "D", kPolicy, "static (default) | wave | global",
       choice(&o.cfg.core.tb_dispatch)},
      // -- machine overrides -------------------------------------------------
      {"cores", "N", kMachine, "number of vector cores",
       uint(&o.cfg.core.num_cores, 1)},
      {"llc-mb", "N", kMachine, "total LLC capacity in MiB",
       mib(&o.cfg.llc.size_bytes)},
      {"slices", "N", kMachine, "LLC slice count",
       uint(&o.cfg.llc.num_slices, 1)},
      {"mshr-entries", "N", kMachine, "MSHR numEntry per slice",
       uint(&o.cfg.llc.mshr_entries, 1)},
      {"mshr-targets", "N", kMachine, "MSHR numTarget per entry",
       uint(&o.cfg.llc.mshr_targets, 1)},
      {"repl", "P", kMachine,
       "LLC replacement: lru | tree-plru | random | srrip | fifo",
       choice(&o.cfg.llc.repl)},
      {"bypass", "P", kMachine, "LLC fill bypass: none | all | prob | reuse",
       choice(&o.cfg.llc.bypass.policy)},
      {"bypass-keep-p", "F", kMachine,
       "keep probability for --bypass=prob (default 0.5)",
       real(&o.cfg.llc.bypass.keep_probability, 0.0, 1.0)},
      {"seed", "N", kMachine, "simulation seed (default 1)",
       uint(&o.cfg.seed, 0)},
      // -- output ------------------------------------------------------------
      {"csv", "PATH", kOutput, "append-style CSV export of the run",
       path(&o.csv_path)},
      {"json", "PATH", kOutput, "JSON export (includes every counter)",
       path(&o.json_path)},
      {"digest", "", kOutput,
       "batch only: print nothing but the canonical\n"
       "batch_stats_digest (two runs are equivalent iff their\n"
       "digests match - the scripted replay check)",
       on(&o.digest_only)},
      {"counters", "", kOutput, "print every merged component counter",
       on(&o.print_counters)},
      {"energy", "", kOutput, "print the energy-model breakdown",
       on(&o.print_energy)},
      {"verbose", "", kOutput, "progress to stderr", on(&o.verbose)},
      {"help", "", kOutput, "this text", {FlagKind::kHelp}},
  };
}

std::string cli_usage() {
  CliOptions unused;
  return flags_usage(
      "llamcat_cli - run one LLaMCAT simulation (Table 5 machine by "
      "default)\n\nusage: llamcat_cli [--flag=value ...]\n",
      cli_flags(unused));
}

ParseResult parse_cli_options(const std::vector<std::string_view>& args) {
  ParseResult result;
  CliOptions opt;
  opt.cfg = SimConfig::table5();
  const std::vector<CliFlag> flags = cli_flags(opt);

  auto fail = [&result](const std::string& msg) {
    result.error = msg;
    return result;
  };
  const FlagParse parsed = parse_flags(flags, args);
  if (parsed.help_requested) {
    result.help_requested = true;
    return result;
  }
  if (!parsed.error.empty()) return fail(parsed.error);
  if (!parsed.positionals.empty()) {
    return fail("unrecognized argument: " +
                std::string(parsed.positionals.front()));
  }
  const std::vector<const CliFlag*>& given = parsed.given;
  const auto was_given = [&given](std::string_view name) {
    return std::any_of(given.begin(), given.end(),
                       [name](const CliFlag* f) { return f->name == name; });
  };

  opt.traffic = was_given("traffic");
  opt.traffic_cfg.num_requests = opt.batch_requests;
  // An explicit --resp-arb wins wherever it appears; without one, cobrra
  // brings its own request-first arbitration.
  if (opt.cfg.arb.policy == ArbPolicy::kCobrra && !was_given("resp-arb")) {
    opt.cfg.llc.resp_arb = RespArbPolicy::kRequestFirst;
  }

  // Open-loop traffic / trace replay cross-checks.
  if (opt.traffic && !opt.trace_in_path.empty()) {
    return fail("--traffic and --trace-in conflict (generate a workload or "
                "replay one, not both; record a generated one with "
                "--trace-out)");
  }
  if (!opt.traffic) {
    // Name the last generator knob given.
    const auto knob =
        std::find_if(given.rbegin(), given.rend(),
                     [](const CliFlag* f) { return f->needs_traffic; });
    if (knob != given.rend()) {
      return fail("--" + std::string((*knob)->name) +
                  " requires --traffic=<process> (it shapes the generated "
                  "workload)");
    }
  }
  const scenario::DecodePassConfig& pass = opt.pass;
  const scenario::ServingConfig& serving = pass.serving;
  if (opt.traffic || !opt.trace_in_path.empty()) {
    const char* source = opt.traffic ? "--traffic" : "--trace-in";
    if (opt.op != "batch" || pass.mode != ExecutionMode::kContinuous) {
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
  if (!opt.batch_arrivals.empty() &&
      pass.mode != ExecutionMode::kContinuous) {
    return fail("--arrivals requires --mode=continuous (the barrier modes "
                "have no notion of mid-pass admission)");
  }
  if (pass.audit && pass.mode != ExecutionMode::kContinuous) {
    return fail("--audit requires --mode=continuous (the auditor checks "
                "serving events, which only the continuous engine has)");
  }
  if (!serving.unconditional() && pass.mode != ExecutionMode::kContinuous) {
    return fail("--admit-policy requires --mode=continuous (the barrier "
                "modes have no serving queue)");
  }
  if (serving.kv_budget_bytes != 0 && serving.unconditional()) {
    return fail("--kv-budget requires --admit-policy=fcfs|srf "
                "(--admit-policy=none admits unconditionally, so a budget "
                "could never be enforced)");
  }
  if (serving.preempt && serving.unconditional()) {
    return fail("--preempt requires --admit-policy=fcfs|srf (a preempted "
                "request re-enters the serving queue, which policy none "
                "does not have)");
  }
  if (serving.paged()) {
    if (!serving.preempt) {
      return fail("--kv-evict=cold-blocks requires --preempt (blocks are "
                  "swapped out when a running request is preempted at a "
                  "stage boundary, which never happens without preemption)");
    }
    if (serving.kv_budget_bytes == 0) {
      return fail("--kv-evict=cold-blocks requires a finite --kv-budget "
                  "(with an unlimited budget there is no pressure to "
                  "relieve, so eviction would only add refetch cost)");
    }
  } else {
    if (serving.kv_block_bytes != 0 && !serving.kv_share) {
      return fail("--kv-block-bytes requires --kv-evict=cold-blocks or "
                  "--kv-share=on (the block pool is the only consumer of "
                  "the block size)");
    }
    if (serving.refetch_cost != 0) {
      return fail("--refetch-cost requires --kv-evict=cold-blocks (nothing "
                  "is ever refetched without paged eviction)");
    }
  }
  if (serving.kv_share && pass.mode != ExecutionMode::kContinuous) {
    return fail("--kv-share requires --mode=continuous (the barrier modes "
                "admit everything at once, so there is no serving-time "
                "block pool to share through)");
  }
  if (!opt.batch_prefix_groups.empty() || !opt.batch_prefix_tokens.empty()) {
    if (!serving.kv_share) {
      return fail("--prefix-groups/--prefix-tokens require --kv-share=on "
                  "(prefix identity is ignored while sharing is off)");
    }
    if (opt.batch_prefix_groups.empty() || opt.batch_prefix_tokens.empty()) {
      return fail("--prefix-groups and --prefix-tokens require each other "
                  "(a group without a prefix length shares nothing)");
    }
  }
  const std::size_t n_requests = opt.batch_seq_lens.empty()
                                     ? opt.batch_requests
                                     : opt.batch_seq_lens.size();
  for (const CliFlag& f : flags) {
    const std::size_t size = f.bind.list != nullptr ? f.bind.list->size() : 0;
    if (size > 1 && size != n_requests) {
      return fail("--" + std::string(f.name) + " has " +
                  std::to_string(size) + " entries but the batch has " +
                  std::to_string(n_requests) +
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

NameTable<Scale> enum_names(Scale) { return kScaleNames; }

std::vector<CliFlag> stress_flags(StressOptions& o) {
  return {
      {"runs", "N", kOptions, "number of seeds to fuzz (default 200)",
       uint(&o.runs, 1)},
      {"jobs", "N", kOptions,
       "worker threads for the sweep; 0 = all cores (default 1);\n"
       "output is identical for any job count",
       uint(&o.jobs, 0)},
      {"seed", "S", kOptions, "base seed; run i uses seed S+i (default 1)",
       uint(&o.base_seed, 0)},
      {"replay", "S", kOptions,
       "run exactly the one seed S (what a failure report\n"
       "suggests)",
       uint(&o.replay, 0, kU64)},
      {"verbose", "", kOptions, "print every scenario, not just failures",
       on(&o.verbose)},
      help_flag(),
  };
}

std::vector<CliFlag> lint_flags(LintOptions& o) {
  return {
      {"list-rules", "", kOptions, "print the rule catalog and exit",
       on(&o.list_rules)},
      {"json", "PATH", kOptions, "also write findings as JSON (\"-\" = stdout)",
       path(&o.json_path)},
      help_flag(),
  };
}

std::vector<CliFlag> explorer_flags(ExplorerOptions& o) {
  return {
      {"model", "NAME", kOptions,
       "llama3-70b (default) | llama3-405b | llama3-8b |\n"
       "gemma2-27b | qwen2-72b",
       choice(&o.model, NameTable<ModelFactory>(kModels))},
      {"seq", "N", kOptions, "sequence length L (default 4096)",
       uint(&o.seq_len, 1)},
      {"throttle", "T", kOptions, "unopt (default) | dyncta | lcs | dynmg",
       choice(&o.throttle)},
      {"arb", "A", kOptions,
       "fcfs (default) | B | MA | BMA | cobrra | mrpb |\n"
       "oracle | random",
       choice(&o.arb)},
      {"llc-mb", "N", kOptions, "total LLC capacity in MiB (default 16)",
       mib(&o.llc_bytes)},
      {"full", "", kOptions, "also dump every counter", on(&o.full)},
      help_flag(),
  };
}

std::vector<CliFlag> bench_flags(Scale* scale, std::string* json_path) {
  std::vector<CliFlag> flags;
  if (scale != nullptr) {
    flags.push_back({"scale", "S", kOptions,
                     "problem scale: quick (CI smoke sizes) | default |\n"
                     "paper (the paper's full sizes; slow)",
                     choice(scale)});
  }
  if (json_path != nullptr) {
    flags.push_back({"json", "PATH", kOptions,
                     "also write the measurement rows as JSON",
                     path(json_path)});
  }
  flags.push_back(help_flag());
  return flags;
}

}  // namespace llamcat
