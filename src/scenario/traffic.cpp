#include "scenario/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/det_math.hpp"
#include "common/rng.hpp"
#include "scenario/kv_block_pool.hpp"

namespace llamcat::scenario {

namespace {

/// Exponential inter-arrival gap with the given mean, from one uniform
/// draw. 1 - u keeps the argument in (0, 1]: det_log never sees 0, and the
/// sample is exactly 0 only when u == 0.
Cycle exp_gap(Xoshiro256& rng, double mean) {
  const double u = rng.uniform();
  const double gap = -det_log(1.0 - u) * mean;
  return static_cast<Cycle>(gap);
}

/// Standard-normal-ish draw via the Irwin-Hall sum of 12 uniforms minus 6
/// (mean 0, variance 1). No libm at all, and accurate far beyond what a
/// clamped lognormal seq-len needs; fixed 12-draw cost keeps the stream
/// layout independent of the sample value.
double normal01(Xoshiro256& rng) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) sum += rng.uniform();
  return sum - 6.0;
}

/// One value from [lo, hi] under the configured distribution, quantized to
/// a multiple of `granule` (lo and hi must already be multiples - validate()
/// enforces that for seq draws; steps draws pass granule 1). Uniform draws
/// a multiple directly; lognormal centers log-space on the geometric
/// midpoint of the range, clamps, then rounds down to the granule. Either
/// way the sample costs the same number of RNG draws as an unquantized one,
/// so the granule does not perturb the draw-order contract.
std::uint64_t draw_size(Xoshiro256& rng, TrafficDist dist, std::uint64_t lo,
                        std::uint64_t hi, double sigma,
                        std::uint64_t granule) {
  if (dist == TrafficDist::kUniform || lo == hi) {
    return lo + granule * rng.below((hi - lo) / granule + 1);
  }
  const double mu =
      0.5 * (det_log(static_cast<double>(lo)) + det_log(static_cast<double>(hi)));
  const double sample = det_exp(mu + sigma * normal01(rng));
  const auto v = std::clamp(static_cast<std::uint64_t>(sample), lo, hi);
  return v / granule * granule;  // >= lo: lo is itself a multiple
}

}  // namespace

void TrafficConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("TrafficConfig: " + msg);
  };
  if (num_requests == 0) fail("num_requests == 0");
  if (mean_gap == 0) fail("mean_gap == 0 (use arrival 0 batches instead)");
  if (process == TrafficProcess::kBursty) {
    if (burst_size == 0) fail("burst_size == 0");
    if (burst_gap_div == 0) fail("burst_gap_div == 0");
  }
  if (process == TrafficProcess::kDiurnal) {
    if (!(0.0 <= diurnal_amplitude && diurnal_amplitude < 1.0))
      fail("diurnal_amplitude outside [0, 1)");
  }
  if (seq_min == 0) fail("seq_min == 0");
  if (seq_min > seq_max) fail("seq_min > seq_max");
  if (seq_granule == 0) fail("seq_granule == 0");
  if (seq_min % seq_granule != 0 || seq_max % seq_granule != 0)
    fail("seq_min/seq_max not multiples of seq_granule");
  // Every sampler reads seq_sigma; a NaN or infinite one would reach an
  // undefined double -> integer conversion.
  if (!std::isfinite(seq_sigma)) fail("seq_sigma is not finite");
  if (seq_dist == TrafficDist::kLognormal && !(seq_sigma > 0.0))
    fail("seq_sigma <= 0 with lognormal seq_dist");
  if (steps_min == 0) fail("steps_min == 0");
  if (steps_min > steps_max) fail("steps_min > steps_max");
  if (prefix_groups > 0) {
    if (!(zipf_s >= 0.0 && std::isfinite(zipf_s)))
      fail("zipf_s negative or not finite");
    if (share_pct > 100) fail("share_pct > 100");
    if (share_pct == 0) fail("share_pct == 0 with prefix_groups set");
  }
}

std::string TrafficConfig::summary() const {
  std::ostringstream os;
  const auto dist_tag = [](TrafficDist d) {
    return d == TrafficDist::kUniform ? "U" : "LN";
  };
  os << to_string(process) << " n=" << num_requests << " gap=" << mean_gap
     << " seq=" << dist_tag(seq_dist) << "[" << seq_min << "," << seq_max
     << "]"
     << " steps=" << dist_tag(steps_dist) << "[" << steps_min << ","
     << steps_max << "]";
  if (prefix_groups > 0)
    os << " groups=" << prefix_groups << " zipf=" << zipf_s << " share%="
       << share_pct;
  os << " seed=" << seed;
  return os.str();
}

std::vector<RequestSpec> generate_traffic(const TrafficConfig& cfg) {
  cfg.validate();
  Xoshiro256 rng(cfg.seed);

  // Zipf group weights and per-group prefix lengths are fixed up front so
  // the per-request draw order below stays append-only as knobs grow.
  // Prefix lengths land in [1, seq_min]: never longer than any member's
  // sequence, which RequestSpec requires.
  std::vector<double> zipf_cum;
  std::vector<std::uint64_t> group_prefix;
  if (cfg.prefix_groups > 0) {
    zipf_cum.reserve(cfg.prefix_groups);
    double total = 0.0;
    for (std::uint32_t g = 0; g < cfg.prefix_groups; ++g) {
      total += 1.0 / det_pow(static_cast<double>(g + 1), cfg.zipf_s);
      zipf_cum.push_back(total);
    }
    group_prefix.reserve(cfg.prefix_groups);
    for (std::uint32_t g = 0; g < cfg.prefix_groups; ++g)
      group_prefix.push_back(1 + rng.below(cfg.seq_min));
  }

  const double period =
      cfg.process == TrafficProcess::kDiurnal
          ? static_cast<double>(cfg.diurnal_period != 0
                                    ? cfg.diurnal_period
                                    : static_cast<Cycle>(cfg.num_requests) *
                                          cfg.mean_gap)
          : 0.0;

  std::vector<RequestSpec> out;
  out.reserve(cfg.num_requests);
  Cycle now = 0;
  std::uint32_t burst_left = 0;  // bursty: requests remaining in this burst
  for (std::uint32_t i = 0; i < cfg.num_requests; ++i) {
    // Draw order per request is part of the determinism contract (mirrors
    // the fuzz corpus rule): arrival gap, seq_len, decode_steps, share
    // coin, group. New knobs must draw after all of these.
    switch (cfg.process) {
      case TrafficProcess::kPoisson:
        now += exp_gap(rng, static_cast<double>(cfg.mean_gap));
        break;
      case TrafficProcess::kBursty: {
        if (burst_left == 0) {
          burst_left = 1 + static_cast<std::uint32_t>(
                               rng.below(2 * cfg.burst_size - 1));
          now += exp_gap(rng, static_cast<double>(cfg.mean_gap) *
                                  static_cast<double>(cfg.burst_size));
        } else {
          now += exp_gap(rng, static_cast<double>(cfg.mean_gap) /
                                  static_cast<double>(cfg.burst_gap_div));
        }
        --burst_left;
        break;
      }
      case TrafficProcess::kDiurnal: {
        // Rate multiplier m(phase) traces a triangle wave over
        // [1 - A, 1 + A]; a larger multiplier means a shorter mean gap.
        const double phase =
            static_cast<double>(now % static_cast<Cycle>(period)) / period;
        const double tri = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
        const double mult =
            1.0 - cfg.diurnal_amplitude + 2.0 * cfg.diurnal_amplitude * tri;
        now += exp_gap(rng, static_cast<double>(cfg.mean_gap) / mult);
        break;
      }
    }

    RequestSpec spec;
    spec.id = i;
    spec.arrival_cycle = now;
    spec.seq_len = draw_size(rng, cfg.seq_dist, cfg.seq_min, cfg.seq_max,
                             cfg.seq_sigma, cfg.seq_granule);
    spec.decode_steps = static_cast<std::uint32_t>(
        draw_size(rng, cfg.steps_dist, cfg.steps_min, cfg.steps_max,
                  cfg.seq_sigma, /*granule=*/1));
    if (cfg.prefix_groups > 0 && rng.below(100) < cfg.share_pct) {
      const double u = rng.uniform() * zipf_cum.back();
      const auto it =
          std::upper_bound(zipf_cum.begin(), zipf_cum.end(), u);
      const auto g = static_cast<std::uint32_t>(
          std::min<std::ptrdiff_t>(it - zipf_cum.begin(),
                                   cfg.prefix_groups - 1));
      spec.prefix_group = g;
      spec.prefix_tokens = group_prefix[g];
    }
    out.push_back(spec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trace record/replay.
// ---------------------------------------------------------------------------

void write_trace(std::ostream& os, const std::vector<RequestSpec>& requests) {
  os << "llamcat-trace v" << kTraceFormatVersion << "\n";
  os << "requests " << requests.size() << "\n";
  for (const RequestSpec& r : requests) {
    os << r.id << ' ' << r.seq_len << ' ' << r.arrival_cycle << ' '
       << r.decode_steps << ' ';
    if (r.prefix_group == kNoPrefixGroup)
      os << '-';
    else
      os << r.prefix_group;
    os << ' ' << r.prefix_tokens << "\n";
  }
}

std::vector<RequestSpec> read_trace(std::istream& is) {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("trace: " + msg);
  };
  std::string line;
  if (!std::getline(is, line)) fail("empty input");
  {
    std::istringstream hdr(line);
    std::string magic, version;
    if (!(hdr >> magic >> version) || magic != "llamcat-trace")
      fail("bad magic line '" + line + "'");
    std::string expected = "v";
    expected += std::to_string(kTraceFormatVersion);
    if (version != expected) {
      std::string msg = "unsupported version '";
      msg += version;
      msg += "' (this build reads v";
      msg += std::to_string(kTraceFormatVersion);
      msg += ")";
      fail(msg);
    }
    std::string extra;
    if (hdr >> extra) fail("trailing tokens on the magic line");
  }
  if (!std::getline(is, line)) fail("missing request-count line");
  std::size_t count = 0;
  {
    std::istringstream cnt(line);
    std::string key;
    if (!(cnt >> key >> count) || key != "requests")
      fail("bad request-count line '" + line + "'");
    std::string extra;
    if (cnt >> extra) fail("trailing tokens on the request-count line");
  }

  std::vector<RequestSpec> out;
  out.reserve(count);
  std::vector<bool> seen;
  for (std::size_t row = 0; row < count; ++row) {
    if (!std::getline(is, line))
      fail("declared " + std::to_string(count) + " requests, found " +
           std::to_string(row));
    std::istringstream rs(line);
    RequestSpec spec;
    std::string group_field;
    if (!(rs >> spec.id >> spec.seq_len >> spec.arrival_cycle >>
          spec.decode_steps >> group_field >> spec.prefix_tokens))
      fail("malformed request row '" + line + "'");
    std::string extra;
    if (rs >> extra) fail("trailing tokens on request row '" + line + "'");
    if (spec.seq_len == 0) fail("seq_len == 0 on request row '" + line + "'");
    if (spec.decode_steps == 0)
      fail("decode_steps == 0 on request row '" + line + "'");
    if (group_field == "-") {
      spec.prefix_group = kNoPrefixGroup;
      if (spec.prefix_tokens != 0)
        fail("prefix_tokens without a group on row '" + line + "'");
    } else {
      std::istringstream gs(group_field);
      if (!(gs >> spec.prefix_group) || !gs.eof() ||
          spec.prefix_group == kNoPrefixGroup)
        fail("bad prefix group '" + group_field + "'");
      if (spec.prefix_tokens == 0 || spec.prefix_tokens > spec.seq_len)
        fail("prefix_tokens outside [1, seq_len] on row '" + line + "'");
    }
    if (spec.id >= seen.size()) seen.resize(spec.id + 1, false);
    if (seen[spec.id])
      fail("duplicate request id " + std::to_string(spec.id));
    seen[spec.id] = true;
    out.push_back(spec);
  }
  std::string tail;
  while (std::getline(is, tail)) {
    if (!tail.empty()) fail("trailing garbage after the last request row");
  }
  return out;
}

std::string trace_to_string(const std::vector<RequestSpec>& requests) {
  std::ostringstream os;
  write_trace(os, requests);
  return os.str();
}

std::vector<RequestSpec> trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

}  // namespace llamcat::scenario
