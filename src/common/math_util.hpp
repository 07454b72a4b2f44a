// Small numeric helpers used across modules.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace llamcat {

/// Geometric mean of a non-empty range of positive values.
inline double geomean(std::span<const double> xs) {
  assert(!xs.empty());
  double acc = 0.0;
  for (double x : xs) {
    assert(x > 0.0);
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

inline double geomean(const std::vector<double>& xs) {
  return geomean(std::span<const double>(xs.data(), xs.size()));
}

/// ceil(a / b) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr std::uint32_t log2_floor(std::uint64_t x) {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// Exact-rational clock divider: derives ticks of a slow clock from ticks of
/// a fast one without floating point drift. Used for the core(1.96 GHz) ->
/// DRAM(1.6 GHz) domain crossing, ratio 40:49.
class ClockDivider {
 public:
  ClockDivider(std::uint64_t slow_hz_numer, std::uint64_t fast_hz_denom)
      : numer_(slow_hz_numer), denom_(fast_hz_denom) {
    assert(numer_ > 0 && denom_ > 0 && numer_ <= denom_);
  }

  /// Advances `n` fast-clock ticks; returns how many slow-clock ticks
  /// elapse (at most one per fast tick, given numer <= denom). A single
  /// tick, once per stepped cycle, needs no division.
  std::uint64_t advance(std::uint64_t n) {
    acc_ += n * numer_;
    if (acc_ < denom_) return 0;
    if (n == 1) {
      acc_ -= denom_;
      return 1;
    }
    const std::uint64_t ticks = acc_ / denom_;
    acc_ %= denom_;
    return ticks;
  }

  void reset() { acc_ = 0; }

 private:
  std::uint64_t numer_;
  std::uint64_t denom_;
  std::uint64_t acc_ = 0;
};

/// Time-weighted running average, used for e.g. MSHR occupancy over a run.
class OccupancyAverage {
 public:
  /// Accumulates `value` holding for `cycles` ticks.
  void add(double value, std::uint64_t cycles = 1) {
    sum_ += value * static_cast<double>(cycles);
    ticks_ += cycles;
  }

  /// Same observable result as calling add(value) `cycles` times. Kept as a
  /// literal repeated-add (not value*cycles) so that skip-ahead bulk
  /// accounting reproduces the per-cycle float rounding bit-for-bit.
  void add_repeated(double value, std::uint64_t cycles) {
    if (value == 0.0) {
      ticks_ += cycles;
      return;
    }
    for (std::uint64_t i = 0; i < cycles; ++i) sum_ += value;
    ticks_ += cycles;
  }

  [[nodiscard]] double mean() const {
    return ticks_ == 0 ? 0.0 : sum_ / static_cast<double>(ticks_);
  }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  void reset() {
    sum_ = 0.0;
    ticks_ = 0;
  }

 private:
  double sum_ = 0.0;
  std::uint64_t ticks_ = 0;
};

}  // namespace llamcat
