#include "scenario/fuzz.hpp"

#include <sstream>
#include <stdexcept>

#include "common/parallel_map.hpp"
#include "common/rng.hpp"
#include "scenario/invariants.hpp"

namespace llamcat::scenario {

namespace {

ModelShape draw_model(Xoshiro256& rng) {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 1 + static_cast<std::uint32_t>(rng.below(2));
  m.group_size = 1u << rng.below(3);
  return m;
}

SimConfig draw_machine(Xoshiro256& rng) {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 1u << rng.below(3);  // 1..4
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 1u << rng.below(2);  // 1..2
  cfg.dram.num_channels = 1u << rng.below(2);
  // A quarter of the draws are starved machines: the serving state machine
  // must stay correct when the underlying simulator crawls.
  switch (rng.below(8)) {
    case 0:
      cfg.llc.mshr_entries = 1 + static_cast<std::uint32_t>(rng.below(2));
      break;
    case 1:
      cfg.llc.req_q_size = 1;
      cfg.llc.resp_q_size = 2;
      break;
    default: break;
  }
  cfg.seed = rng();
  cfg.max_cycles = 500'000'000;
  return cfg;
}

std::vector<RequestSpec> draw_requests(Xoshiro256& rng) {
  const std::size_t n = 1 + rng.below(5);
  std::vector<RequestSpec> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].id = static_cast<std::uint32_t>(i);
    reqs[i].seq_len = 32 * (1 + rng.below(10));  // 32..320
    // Half the arrivals are bursts at 0; the rest land mid-stream, some
    // while the machine is provably idle (gap > any segment).
    reqs[i].arrival_cycle = rng.below(2) == 0 ? 0 : rng.below(80'000);
    reqs[i].decode_steps = 1 + static_cast<std::uint32_t>(rng.below(3));
  }
  return reqs;
}

ServingConfig draw_serving(Xoshiro256& rng, const RequestBatch& batch,
                           std::uint32_t num_layers) {
  ServingConfig s;
  const std::uint64_t p = rng.below(8);
  if (p < 2) return s;  // raw engine: 1/4 of the draws
  s.policy = p < 5 ? AdmitPolicy::kFcfs : AdmitPolicy::kShortestRemaining;
  if (rng.below(2) == 0) {
    // A finite budget in [max request peak, batch peak]: always admissible
    // request-by-request, usually too tight to co-run everyone.
    std::uint64_t max_peak = 0;
    for (const RequestSpec& r : batch.requests()) {
      max_peak = std::max(max_peak, batch.peak_kv_bytes(r, num_layers));
    }
    const std::uint64_t total = batch.total_peak_kv_bytes(num_layers);
    s.kv_budget_bytes = max_peak + rng.below(total - max_peak + 1);
  }
  s.preempt = rng.below(2) == 0;
  if (s.preempt) {
    s.preempt_ratio = 1 + static_cast<std::uint32_t>(rng.below(4));
    if (s.kv_budget_bytes != 0 && rng.below(2) == 0) {
      s.kv_evict = KvEvictPolicy::kColdBlocks;
      // Block sizes cover the default line granule, odd multiples (partial
      // tails), page-sized blocks, and one larger than any footprint here
      // (no whole block is ever evictable - eviction must refuse to churn).
      static constexpr std::uint64_t kBlocks[] = {0,   64,   128,    192,
                                                  256, 4096, 1 << 20};
      s.kv_block_bytes = kBlocks[rng.below(std::size(kBlocks))];
      static constexpr Cycle kCosts[] = {0, 0, 1, 2, 7, 64};
      s.refetch_cost = kCosts[rng.below(std::size(kCosts))];
    }
  }
  return s;
}

/// Timing-only projection of a run: landmarks, queue/preempt counts and
/// per-segment cycles, but no byte counters. Prefix sharing with an
/// unlimited budget and no paged eviction must be timing-neutral (it only
/// changes what the ledger charges, never when anything runs), which is a
/// weaker relation than digest equality - the share counters themselves
/// legitimately differ.
std::string timing_digest(const BatchStats& s) {
  std::ostringstream os;
  os << "makespan=" << s.makespan << " cycles=" << s.total.cycles << "\n";
  for (const RequestStats& r : s.per_request) {
    os << "req " << r.id << ": admit=" << r.admit_cycle
       << " finish=" << r.finish_cycle << " queued=" << r.queued_cycles
       << " preempt=" << r.preemptions << " cycles=" << r.stats.cycles
       << " first=" << r.slice.first_dispatch_cycle
       << " last=" << r.slice.last_complete_cycle << "\n";
  }
  os << "segments=" << s.per_op.size() << ":";
  for (const auto& op : s.per_op) {
    os << " " << op.name << "=" << op.stats.cycles;
  }
  os << "\n";
  return os.str();
}

/// First line where two digests diverge, for a one-look failure report.
std::string first_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(digests identical)";
    if (la != lb || ga != gb) {
      return "run1 '" + (ga ? la : std::string("<eof>")) + "' vs run2 '" +
             (gb ? lb : std::string("<eof>")) + "'";
    }
  }
}

}  // namespace

std::string batch_stats_digest(const BatchStats& s) {
  std::ostringstream os;
  os << "mode=" << static_cast<int>(s.mode) << " makespan=" << s.makespan
     << " paged=" << s.paged << " shared=" << s.shared << "\n";
  if (s.shared) {
    os << "pool: lookups=" << s.kv_block_lookups << " hits=" << s.kv_block_hits
       << " shared_b=" << s.kv_shared_bytes
       << " charged_b=" << s.kv_charged_bytes
       << " logical_b=" << s.kv_logical_bytes << "\n";
  }
  os << "total: cycles=" << s.total.cycles << " instr=" << s.total.instructions
     << " tbs=" << s.total.thread_blocks << " dram_r=" << s.total.dram_reads
     << " dram_w=" << s.total.dram_writes << "\n";
  for (const auto& [name, v] : s.total.counters.counters()) {
    os << "  counter " << name << "=" << v << "\n";
  }
  for (const RequestStats& r : s.per_request) {
    os << "req " << r.id << ": arrival=" << r.arrival_cycle
       << " admit=" << r.admit_cycle << " finish=" << r.finish_cycle
       << " queued=" << r.queued_cycles << " preempt=" << r.preemptions
       << " pfx=" << r.prefix_hit_blocks << "/" << r.prefix_hit_bytes
       << " swapped=" << r.swapped_blocks << " refetch_b=" << r.refetch_bytes
       << " refetch_c=" << r.refetch_cycles << " cycles=" << r.stats.cycles
       << " instr=" << r.slice.instructions << " tbs=" << r.slice.thread_blocks
       << " first=" << r.slice.first_dispatch_cycle
       << " last=" << r.slice.last_complete_cycle
       << " llc=" << r.slice.llc_lookups << "/" << r.slice.llc_hits << "/"
       << r.slice.llc_misses << " dram=" << r.slice.dram_reads << "/"
       << r.slice.dram_writes << " ttft=" << r.ttft() << " steps=";
    for (std::size_t k = 0; k < r.step_finish_cycles.size(); ++k) {
      os << (k == 0 ? "" : ",") << r.step_finish_cycles[k];
    }
    os << "\n";
  }
  os << "segments=" << s.per_op.size() << ":";
  for (const auto& op : s.per_op) {
    os << " " << op.name << "=" << op.stats.cycles;
  }
  os << "\n";
  return os.str();
}

std::string FuzzScenario::summary() const {
  std::ostringstream os;
  os << requests.size() << " req (seq";
  for (const RequestSpec& r : requests) os << " " << r.seq_len;
  os << "; arrive";
  for (const RequestSpec& r : requests) os << " " << r.arrival_cycle;
  os << "; steps";
  for (const RequestSpec& r : requests) os << " " << r.decode_steps;
  os << "), layers=" << pass_cfg.num_layers
     << " gemv=" << (pass_cfg.include_gemv ? "on" : "off")
     << " interleave=" << to_string(pass_cfg.interleave)
     << ", cores=" << cfg.core.num_cores << " slices=" << cfg.llc.num_slices
     << " dram_ch=" << cfg.dram.num_channels
     << " mshr=" << cfg.llc.mshr_entries << " req_q=" << cfg.llc.req_q_size
     << " mseed=" << cfg.seed
     << ", admit=" << to_string(pass_cfg.serving.policy)
     << " budget=" << pass_cfg.serving.kv_budget_bytes
     << " preempt=" << (pass_cfg.serving.preempt ? "on" : "off")
     << " evict=" << to_string(pass_cfg.serving.kv_evict)
     << " block=" << pass_cfg.serving.kv_block_bytes
     << " refetch=" << pass_cfg.serving.refetch_cost
     << " share=" << (pass_cfg.serving.kv_share ? "on" : "off");
  if (pass_cfg.serving.kv_share) {
    os << " (pfx";
    for (const RequestSpec& r : requests) {
      if (r.prefix_group == kNoPrefixGroup) {
        os << " -";
      } else {
        os << " g" << r.prefix_group << ":" << r.prefix_tokens;
      }
    }
    os << ")";
  }
  if (open_loop) os << ", open-loop[" << traffic.summary() << "]";
  return os.str();
}

FuzzScenario draw_scenario(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzScenario sc;
  sc.cfg = draw_machine(rng);
  sc.model = draw_model(rng);
  sc.requests = draw_requests(rng);
  sc.pass_cfg.mode = ExecutionMode::kContinuous;
  sc.pass_cfg.num_layers = 1 + static_cast<std::uint32_t>(rng.below(2));
  sc.pass_cfg.include_gemv = rng.below(3) == 0;
  sc.pass_cfg.interleave =
      rng.below(2) == 0 ? FuseOrder::kRoundRobin : FuseOrder::kConcat;
  const RequestBatch batch(sc.model, sc.requests);
  sc.pass_cfg.serving = draw_serving(rng, batch, sc.pass_cfg.num_layers);
  // Cross-request prefix sharing: drawn strictly after every pre-existing
  // knob so each pre-pool pinned seed replays its original scenario
  // unchanged (the draw order is part of the corpus contract).
  if (rng.below(2) == 0) {
    sc.pass_cfg.serving.kv_share = true;
    const std::uint64_t num_groups = 1 + rng.below(2);
    for (RequestSpec& r : sc.requests) {
      // A quarter of the requests stay private even in a sharing run.
      if (rng.below(4) == 0) continue;
      r.prefix_group = static_cast<std::uint32_t>(rng.below(num_groups));
      r.prefix_tokens = 1 + rng.below(r.seq_len);
    }
    if (sc.pass_cfg.serving.kv_block_bytes == 0 && rng.below(2) == 0) {
      // Sharing without paged eviction still exercises the block granule
      // (the paged path draws its own block size above).
      static constexpr std::uint64_t kShareBlocks[] = {64, 192, 256, 4096};
      sc.pass_cfg.serving.kv_block_bytes =
          kShareBlocks[rng.below(std::size(kShareBlocks))];
    }
  }
  // Open-loop draws: a third of the scenarios swap the hand-rolled batch
  // for a generated arrival process (traffic.hpp). Drawn strictly after
  // every pre-existing knob - the corpus contract again - so every
  // pre-open-loop pinned seed replays its original scenario unchanged.
  if (rng.below(3) == 0) {
    sc.open_loop = true;
    TrafficConfig tc;
    tc.seed = rng();
    tc.num_requests = 2 + static_cast<std::uint32_t>(rng.below(4));
    static constexpr TrafficProcess kProcs[] = {TrafficProcess::kPoisson,
                                                TrafficProcess::kBursty,
                                                TrafficProcess::kDiurnal};
    tc.process = kProcs[rng.below(std::size(kProcs))];
    // Gaps span idle machines (huge gap) down to near-simultaneous bursts.
    static constexpr Cycle kGaps[] = {500, 5'000, 20'000, 80'000};
    tc.mean_gap = kGaps[rng.below(std::size(kGaps))];
    tc.seq_dist = rng.below(2) == 0 ? TrafficDist::kUniform
                                    : TrafficDist::kLognormal;
    tc.seq_min = 32;
    tc.seq_max = 32 * (2 + rng.below(9));  // 64..320
    tc.steps_min = 1;
    tc.steps_max = 1 + static_cast<std::uint32_t>(rng.below(3));
    if (sc.pass_cfg.serving.kv_share) {
      tc.prefix_groups = 1 + static_cast<std::uint32_t>(rng.below(2));
      tc.share_pct = 75;
    }
    sc.traffic = tc;
    sc.requests = generate_traffic(tc);
    // The budget drawn above sized itself against the discarded hand-rolled
    // batch; re-draw it against the generated one so it stays in the
    // always-admissible-but-usually-tight band.
    if (sc.pass_cfg.serving.kv_budget_bytes != 0) {
      const RequestBatch open_batch(sc.model, sc.requests);
      std::uint64_t max_peak = 0;
      for (const RequestSpec& r : open_batch.requests()) {
        max_peak = std::max(
            max_peak, open_batch.peak_kv_bytes(r, sc.pass_cfg.num_layers));
      }
      const std::uint64_t total =
          open_batch.total_peak_kv_bytes(sc.pass_cfg.num_layers);
      sc.pass_cfg.serving.kv_budget_bytes =
          max_peak + rng.below(total - max_peak + 1);
    }
  }
  return sc;
}

FuzzResult run_fuzz_seed(std::uint64_t seed) {
  return run_fuzz_scenario(seed, draw_scenario(seed));
}

FuzzResult run_fuzz_scenario(std::uint64_t seed, const FuzzScenario& sc) {
  FuzzResult out;
  out.seed = seed;
  try {
    const RequestBatch batch(sc.model, sc.requests);

    // Run 1: in-engine ledger auditor on (KV conservation, budget ceiling,
    // event-clock monotonicity - checked on the cycle each event happens).
    DecodePassConfig audited = sc.pass_cfg;
    audited.audit = true;
    const BatchStats s1 = DecodePass(batch, audited, sc.cfg).run();

    // Post-run contract: landmarks, attribution, policy accounting.
    const AuditReport report = audit_batch(batch, sc.pass_cfg, s1);
    for (const std::string& v : report.violations) {
      out.violations.push_back("contract: " + v);
    }

    // Run 2: audit off. Identical digests prove same-seed determinism and
    // that the auditor is observation-only, in one comparison.
    const BatchStats s2 = DecodePass(batch, sc.pass_cfg, sc.cfg).run();
    const std::string d1 = batch_stats_digest(s1), d2 = batch_stats_digest(s2);
    out.digest = d1;
    if (d1 != d2) {
      out.violations.push_back(
          "determinism: audited and plain runs of the same scenario "
          "diverge: " +
          first_diff(d1, d2));
    }

    // Fast-path differential, every 4th seed: skip-ahead and awake sets
    // must be invisible, so stepping every component on every cycle must
    // reproduce the digest byte for byte. (Pointless when the scenario
    // already runs stepped.)
    if (seed % 4 == 0 && sc.cfg.fast_path) {
      SimConfig stepped = sc.cfg;
      stepped.fast_path = false;
      const BatchStats s6 = DecodePass(batch, sc.pass_cfg, stepped).run();
      const std::string d6 = batch_stats_digest(s6);
      if (d1 != d6) {
        out.violations.push_back(
            "fast path: the run with SimConfig::fast_path off diverges: " +
            first_diff(d1, d6));
      }
    }

    // A queueing discipline with an unlimited budget and no preemption
    // never holds anyone back: it must reproduce the raw unconditional
    // engine byte for byte.
    const ServingConfig& serving = sc.pass_cfg.serving;
    if (!serving.unconditional() && serving.kv_budget_bytes == 0 &&
        !serving.preempt && !serving.kv_share) {
      DecodePassConfig raw = sc.pass_cfg;
      raw.serving = ServingConfig{};
      const BatchStats s3 = DecodePass(batch, raw, sc.cfg).run();
      const std::string d3 = batch_stats_digest(s3);
      if (d1 != d3) {
        out.violations.push_back(
            "policy-none equivalence: " + std::string(to_string(
                serving.policy)) +
            " with unlimited budget and no preemption diverges from the "
            "raw engine: " +
            first_diff(d1, d3));
      }
    }

    // Share neutrality: with an unlimited budget and no paged eviction,
    // prefix sharing only changes what the ledger charges - never when
    // anything runs. The same scenario with kv_share off must match on the
    // timing projection (full digests legitimately differ in the share
    // counters themselves).
    if (serving.kv_share && !serving.paged() &&
        serving.kv_budget_bytes == 0) {
      DecodePassConfig unshared = sc.pass_cfg;
      unshared.serving.kv_share = false;
      const BatchStats s4 = DecodePass(batch, unshared, sc.cfg).run();
      const std::string t1 = timing_digest(s1), t4 = timing_digest(s4);
      if (t1 != t4) {
        out.violations.push_back(
            "share neutrality: kv_share with an unlimited budget and no "
            "paged eviction changed the timing: " +
            first_diff(t1, t4));
      }
    }
    // Closed-vs-open equivalence: record the generated workload as a trace,
    // replay it as a fixed batch, and demand the replay reproduce the
    // open-loop run's digest byte for byte - the trace format must carry
    // everything the engine's timing depends on.
    if (sc.open_loop) {
      // Open-loop contract: arrival ordering, TTFT/step-landmark
      // monotonicity, SLO partition sums. The SLO itself is arbitrary for
      // the partition property; half the makespan splits the batch into
      // non-degenerate buckets on most draws.
      const AuditReport open_report =
          audit_open_loop(sc.requests, s1, s1.makespan / 2);
      for (const std::string& v : open_report.violations) {
        out.violations.push_back("open-loop: " + v);
      }

      const std::string trace = trace_to_string(sc.requests);
      const std::vector<RequestSpec> replayed = trace_from_string(trace);
      const RequestBatch replay_batch(sc.model, replayed);
      const BatchStats s5 = DecodePass(replay_batch, sc.pass_cfg, sc.cfg).run();
      const std::string d5 = batch_stats_digest(s5);
      if (d1 != d5) {
        out.violations.push_back(
            "trace replay: the recorded trace replayed as a fixed batch "
            "diverges from the generating open-loop run: " +
            first_diff(d1, d5));
      }
      // And the artifact itself must be byte-stable through a round-trip.
      if (trace_to_string(replayed) != trace) {
        out.violations.push_back(
            "trace stability: write -> read -> write changed bytes");
      }
    }
  } catch (const InvariantViolation& e) {
    out.violations.push_back(std::string("auditor: ") + e.what());
  } catch (const std::exception& e) {
    out.violations.push_back(std::string("engine exception: ") + e.what());
  }
  return out;
}

std::vector<FuzzResult> run_fuzz_sweep(std::uint64_t base_seed,
                                       std::uint64_t n, std::size_t jobs) {
  return parallel_map(n, jobs, [base_seed](std::size_t i) {
    return run_fuzz_seed(base_seed + i);
  });
}

}  // namespace llamcat::scenario
