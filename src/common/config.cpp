#include "common/config.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/math_util.hpp"

namespace llamcat {

// Name tables: the first row of each value is its canonical name.

NameTable<ArbPolicy> enum_names(ArbPolicy) {
  using enum ArbPolicy;
  static constexpr EnumName<ArbPolicy> kNames[] = {
      {kFcfs, "fcfs"},
      {kBalanced, "B"}, {kBalanced, "b"}, {kBalanced, "balanced"},
      {kMa, "MA"}, {kMa, "ma"},
      {kBma, "BMA"}, {kBma, "bma"},
      {kCobrra, "cobrra"}, {kMrpb, "mrpb"}, {kOracle, "oracle"},
      {kRandom, "random"}};
  return kNames;
}

NameTable<BypassPolicy> enum_names(BypassPolicy) {
  using enum BypassPolicy;
  static constexpr EnumName<BypassPolicy> kNames[] = {
      {kNone, "none"}, {kAll, "all"},
      {kProbabilistic, "probabilistic"}, {kProbabilistic, "prob"},
      {kReuseHistory, "reuse-history"}, {kReuseHistory, "reuse"}};
  return kNames;
}

NameTable<ReplPolicy> enum_names(ReplPolicy) {
  using enum ReplPolicy;
  static constexpr EnumName<ReplPolicy> kNames[] = {
      {kLru, "lru"},
      {kTreePlru, "tree-plru"}, {kTreePlru, "plru"},
      {kRandom, "random"}, {kSrrip, "srrip"}, {kFifo, "fifo"}};
  return kNames;
}

NameTable<InsertPolicy> enum_names(InsertPolicy) {
  using enum InsertPolicy;
  static constexpr EnumName<InsertPolicy> kNames[] = {
      {kMru, "mru"}, {kStreaming, "streaming"}};
  return kNames;
}

NameTable<RespArbPolicy> enum_names(RespArbPolicy) {
  using enum RespArbPolicy;
  static constexpr EnumName<RespArbPolicy> kNames[] = {
      {kResponseFirst, "response-first"}, {kRequestFirst, "request-first"}};
  return kNames;
}

NameTable<ThrottlePolicy> enum_names(ThrottlePolicy) {
  using enum ThrottlePolicy;
  static constexpr EnumName<ThrottlePolicy> kNames[] = {
      {kNone, "unopt"}, {kNone, "none"},
      {kDyncta, "dyncta"}, {kLcs, "lcs"}, {kDynMg, "dynmg"}};
  return kNames;
}

NameTable<TbDispatch> enum_names(TbDispatch) {
  using enum TbDispatch;
  static constexpr EnumName<TbDispatch> kNames[] = {
      {kStaticBlocked, "static"},
      {kPartitionedStealing, "wave"},
      {kGlobalQueue, "global"}};
  return kNames;
}

NameTable<RequestDispatch> enum_names(RequestDispatch) {
  using enum RequestDispatch;
  static constexpr EnumName<RequestDispatch> kNames[] = {
      {kShared, "shared"},
      {kInterleave, "interleave"},
      {kPartitioned, "partitioned"}};
  return kNames;
}

NameTable<ExecutionMode> enum_names(ExecutionMode) {
  using enum ExecutionMode;
  static constexpr EnumName<ExecutionMode> kNames[] = {
      {kIndependent, "independent"},
      {kCoScheduled, "coscheduled"},
      {kContinuous, "continuous"}};
  return kNames;
}

NameTable<AdmitPolicy> enum_names(AdmitPolicy) {
  using enum AdmitPolicy;
  static constexpr EnumName<AdmitPolicy> kNames[] = {
      {kNone, "none"}, {kFcfs, "fcfs"},
      {kShortestRemaining, "srf"}, {kShortestRemaining, "shortest"},
      {kShortestRemaining, "shortest-remaining"}};
  return kNames;
}

NameTable<KvEvictPolicy> enum_names(KvEvictPolicy) {
  using enum KvEvictPolicy;
  static constexpr EnumName<KvEvictPolicy> kNames[] = {
      {kNone, "none"},
      {kColdBlocks, "cold-blocks"}, {kColdBlocks, "cold"}};
  return kNames;
}

NameTable<TrafficProcess> enum_names(TrafficProcess) {
  using enum TrafficProcess;
  static constexpr EnumName<TrafficProcess> kNames[] = {
      {kPoisson, "poisson"}, {kBursty, "bursty"}, {kDiurnal, "diurnal"}};
  return kNames;
}

NameTable<TrafficDist> enum_names(TrafficDist) {
  using enum TrafficDist;
  static constexpr EnumName<TrafficDist> kNames[] = {
      {kUniform, "uniform"}, {kUniform, "U"},
      {kLognormal, "lognormal"}, {kLognormal, "LN"}};
  return kNames;
}

SimConfig SimConfig::table5() {
  SimConfig cfg;  // defaults in the struct definitions *are* Table 5
  cfg.validate();
  return cfg;
}

// Per-block validation: each config struct owns its internal consistency
// checks (the llamcat_lint `config-validate` rule pins that every *Config
// declares one); SimConfig::validate() composes them and keeps only the
// cross-block constraints.

void CoreConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("CoreConfig: " + msg);
  };
  if (num_cores == 0) fail("num_cores == 0");
  if (num_inst_windows == 0) fail("num_inst_windows == 0");
  if (inst_window_depth == 0) fail("inst_window_depth == 0");
}

const char* cache_assoc_error(std::uint32_t assoc, ReplPolicy repl) {
  if (assoc == 0) return "assoc == 0";
  if (assoc > 64) return "assoc > 64";
  if (repl == ReplPolicy::kTreePlru && assoc > 32)
    return "assoc > 32 under tree-PLRU";
  return nullptr;
}

void L1Config::validate() const {
  if (const char* e = cache_assoc_error(assoc, repl))
    throw std::invalid_argument(std::string("L1Config: ") + e);
  if (!is_pow2(size_bytes) || size_bytes % (assoc * kLineBytes) != 0) {
    throw std::invalid_argument(
        "L1Config: L1 geometry not a power-of-two set count");
  }
}

void BypassConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("BypassConfig: " + msg);
  };
  // Written so that NaN fails it too.
  if (!(0.0 <= keep_probability && keep_probability <= 1.0))
    fail("keep_probability outside [0, 1]");
  if (policy == BypassPolicy::kReuseHistory && table_entries == 0)
    fail("table_entries == 0");
  if (region_log2 < 6 || region_log2 > 30)
    fail("region_log2 outside [6, 30]");
  if (keep_threshold > 3) fail("keep_threshold > 3 (2-bit counters)");
}

void LlcConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("LlcConfig: " + msg);
  };
  if (!is_pow2(num_slices)) fail("num_slices must be a power of two");
  if (const char* e = cache_assoc_error(assoc, repl)) fail(e);
  const std::uint64_t sets = size_bytes / (assoc * kLineBytes);
  if (sets == 0) fail("LLC has zero sets");
  // SliceMap masks global set indices with sets - 1.
  if (!is_pow2(sets)) {
    fail("LLC set count " + std::to_string(sets) +
         " is not a power of two");
  }
  if (sets % num_slices != 0) fail("LLC sets not divisible by slices");
  if (mshr_entries == 0 || mshr_targets == 0) fail("MSHR dims == 0");
  if (req_q_size == 0 || resp_q_size == 0) fail("LLC queue size == 0");
  bypass.validate();
}

void ArbConfig::validate() const {
  // Depth 0 disables the corresponding FIFO, which every policy tolerates.
  // The sent_reqs lower bound depends on the LLC latencies and is checked
  // in SimConfig::validate().
}

void ArbConfig::check_sent_reqs_depth(std::uint64_t depth,
                                      std::uint64_t lifetime) {
  if (depth != 0 && depth < lifetime) {
    throw std::invalid_argument(
        "arb.sent_reqs_depth " + std::to_string(depth) +
        " below the lookup lifetime llc.hit_latency + llc.mshr_latency = " +
        std::to_string(lifetime) + " (0 disables sent_reqs)");
  }
}

void DramConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("DramConfig: " + msg);
  };
  if (num_channels == 0 || !is_pow2(num_channels))
    fail("channels must be a power of two");
  if (!is_pow2(ranks_per_channel) || !is_pow2(bankgroups_per_rank) ||
      !is_pow2(banks_per_bankgroup) || !is_pow2(rows_per_bank))
    fail("DRAM geometry must be powers of two");
  if (row_bytes % kLineBytes != 0) fail("row_bytes not line-aligned");
  if (dram_hz <= 0) fail("clock <= 0");
}

void ThrottleConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ThrottleConfig: " + msg);
  };
  if (max_gear > 4) fail("max_gear > 4 (Table 1 defines 5 gears)");
  if (!(tcs_low < tcs_normal && tcs_normal < tcs_high && tcs_high <= 1.0))
    fail("t_cs thresholds must be increasing and <= 1");
  if (sub_period == 0 || sampling_period == 0) fail("throttle periods == 0");
  if (sampling_period % sub_period != 0)
    fail("sampling_period must be a multiple of sub_period");
}

void SimConfig::validate() const {
  core.validate();
  l1.validate();
  llc.validate();
  arb.validate();
  noc.validate();
  dram.validate();
  throttle.validate();
  if (core_hz <= 0) throw std::invalid_argument("SimConfig: clock <= 0");
  if (dram.dram_hz > core_hz)
    throw std::invalid_argument("SimConfig: model assumes dram_hz <= core_hz");
  ArbConfig::check_sent_reqs_depth(
      arb.sent_reqs_depth,
      static_cast<std::uint64_t>(llc.hit_latency) + llc.mshr_latency);
}

std::string SimConfig::summary() const {
  std::ostringstream os;
  os << core.num_cores << "c/" << (llc.size_bytes >> 20) << "MB/"
     << llc.num_slices << "sl/arb=" << to_string(arb.policy)
     << "/thr=" << to_string(throttle.policy);
  return os.str();
}

}  // namespace llamcat
