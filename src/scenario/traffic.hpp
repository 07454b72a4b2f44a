// Open-loop traffic generation + versioned trace record/replay.
//
// Everything upstream of this header is closed-loop: every request is known
// at construction and its arrival cycle is hand-picked. This layer turns
// the continuous engine into an open-loop serving target: a seeded arrival
// process (Poisson, bursty on-off, or diurnal-rate) emits RequestSpecs
// whose sizes come from configurable distributions (uniform or clamped
// lognormal sequence lengths and decode steps, Zipf-popular prefix groups
// that compose with the PR 8 block pool), so load can be swept to
// saturation instead of replayed from a fixed list.
//
// Determinism contract: generate_traffic(cfg) is a pure function of the
// config (same seed -> byte-identical request list on every platform). The
// samplers use only common/rng.hpp plus the deterministic transcendentals
// in common/det_math.hpp - never libm's log/exp, whose bits differ across
// implementations - so a trace generated on one machine replays exactly on
// another.
//
// Trace record/replay (in the spirit of RocksDB's trace_replay): any
// generated (or hand-built) workload serializes to a versioned,
// line-oriented text format via write_trace and re-loads via read_trace.
// The format is byte-stable - write(read(write(x))) == write(x) - so a
// recorded trace is a reproducible artifact: replaying it as a fixed batch
// reproduces the generating run's batch_stats_digest byte for byte.
// docs/workloads.md specifies the format and the process definitions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "scenario/scenario.hpp"

namespace llamcat::scenario {

/// Re-exported as the scenario vocabulary (defined in common/config.hpp
/// with the other shared enums and their name tables).
using llamcat::TrafficDist;
using llamcat::TrafficProcess;

/// Knobs of the open-loop workload generator. The defaults describe a
/// moderate Poisson stream of small requests; every field is swept by the
/// saturation bench (scenario/sweep.hpp) or fuzzed (scenario/fuzz.cpp).
struct TrafficConfig {
  /// Requests to emit (ids 0..n-1, arrivals nondecreasing).
  std::uint32_t num_requests = 8;
  /// Generator seed. Independent of SimConfig::seed: the workload and the
  /// machine are separately reproducible.
  std::uint64_t seed = 1;

  // -- arrival process ------------------------------------------------------
  TrafficProcess process = TrafficProcess::kPoisson;
  /// Mean inter-arrival gap in stream cycles (the offered load knob:
  /// rate = 1/mean_gap). Poisson draws exponential gaps with this mean.
  Cycle mean_gap = 20'000;
  /// kBursty: mean requests per on-phase. Burst sizes are drawn uniformly
  /// in [1, 2*burst_size - 1] (mean burst_size); gaps inside a burst are
  /// exponential with mean mean_gap / burst_gap_div, and the off-gap before
  /// each new burst is exponential with mean mean_gap * burst_size, so the
  /// long-run offered rate stays comparable to the Poisson stream while
  /// arrivals cluster.
  std::uint32_t burst_size = 4;
  std::uint32_t burst_gap_div = 8;
  /// kDiurnal: period of the rate cycle in cycles (0 = derive one full
  /// cycle across the expected run: num_requests * mean_gap).
  Cycle diurnal_period = 0;
  /// kDiurnal: the rate multiplier sweeps [1 - amplitude, 1 + amplitude]
  /// as a triangle wave across the period (piecewise-linear - kept free of
  /// libm trig on purpose; see the determinism contract above).
  double diurnal_amplitude = 0.5;

  // -- per-request size distributions ---------------------------------------
  TrafficDist seq_dist = TrafficDist::kUniform;
  std::uint64_t seq_min = 64;
  std::uint64_t seq_max = 512;
  /// Sequence lengths are quantized to multiples of this (and seq_min /
  /// seq_max must be multiples). The step-0 operators present the raw
  /// sequence to the mapper, which only tiles whole cache lines of KV
  /// elements - kLineBytes / dtype_bytes tokens, 32 at 2-byte dtypes - so
  /// an unquantized length has no valid mapping.
  std::uint64_t seq_granule = 32;
  /// kLognormal sequence lengths: log-space standard deviation. The
  /// log-space mean is the geometric midpoint of [seq_min, seq_max] and
  /// samples clamp to the range.
  double seq_sigma = 0.5;
  TrafficDist steps_dist = TrafficDist::kUniform;
  std::uint32_t steps_min = 1;
  std::uint32_t steps_max = 4;

  // -- prefix popularity (composes with the PR 8 block pool) ----------------
  /// Distinct prefix groups (system prompts). 0 = fully private batch; the
  /// generated groups only take effect under ServingConfig::kv_share.
  std::uint32_t prefix_groups = 0;
  /// Zipf skew of group popularity: P(g) proportional to 1/(g+1)^zipf_s.
  /// Group 0 is the most popular.
  double zipf_s = 1.0;
  /// Percent of requests that carry a prefix group at all (the rest stay
  /// private even in a sharing run).
  std::uint32_t share_pct = 75;

  /// Throws std::invalid_argument on an inconsistent generator shape.
  void validate() const;

  /// "poisson n=8 gap=20000 seq=U[64,512] steps=U[1,4] seed=1" style.
  [[nodiscard]] std::string summary() const;
};

/// Deterministically expands the config into an arrival-ordered request
/// list (ids 0..n-1, arrival cycles nondecreasing). Pure function of `cfg`;
/// validates it first.
[[nodiscard]] std::vector<RequestSpec> generate_traffic(
    const TrafficConfig& cfg);

// ---------------------------------------------------------------------------
// Versioned trace record/replay.
// ---------------------------------------------------------------------------

/// The trace format version this build writes and the only one it reads.
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Serializes the request list as the line-oriented text format (see
/// docs/workloads.md):
///   llamcat-trace v1
///   requests <n>
///   <id> <seq_len> <arrival_cycle> <decode_steps> <prefix_group|-> <prefix_tokens>
/// Integers only, one request per line, '-' for a private request's group:
/// byte-stable by construction.
void write_trace(std::ostream& os, const std::vector<RequestSpec>& requests);

/// Parses a trace written by write_trace (strictly: exact magic/version,
/// declared request count, six fields per row, no trailing garbage,
/// positive lengths/steps, valid prefix pairing, unique ids). Throws
/// std::invalid_argument with a "trace:"-prefixed message on any violation.
[[nodiscard]] std::vector<RequestSpec> read_trace(std::istream& is);

/// Convenience round-trip helpers for tests and the CLI.
[[nodiscard]] std::string trace_to_string(
    const std::vector<RequestSpec>& requests);
[[nodiscard]] std::vector<RequestSpec> trace_from_string(
    const std::string& text);

}  // namespace llamcat::scenario
