// Randomized serving-layer scenario generator + one-seed fuzz harness,
// shared by the stress fuzzer binary (tools/llamcat_stress.cpp) and the
// pinned-seed regression suite (tests/test_serving_fuzz.cpp) so a seed the
// fuzzer finds replays bit-for-bit in CI.
//
// One seed deterministically draws a full serving scenario - machine
// (including starved MSHR/queue/slice shapes), batch (arrival pattern,
// seq-len/step mix, prefix-group overlap) and serving policy (admission
// discipline x KV budget x preemption x paged eviction x block size x
// refetch price x prefix sharing) - and
// run_fuzz_seed() puts it through the whole invariant contract
// (scenario/invariants.hpp):
//
//  - run 1 executes with the in-engine ledger auditor on;
//  - run 2 executes audit-off and must be byte-identical (same-seed
//    determinism AND audit-neutrality in one diff);
//  - every 4th seed also runs with SimConfig::fast_path off and must be
//    byte-identical (the skip-ahead fast path is invisible);
//  - the post-run contract (audit_batch) checks landmarks, attribution and
//    policy accounting;
//  - draws whose knobs are provably no-ops (a queueing discipline with an
//    unlimited budget and no preemption) are re-run under policy=none and
//    must be byte-identical to the raw PR 3 engine;
//  - prefix-sharing draws (kv_share with an unlimited budget and no paged
//    eviction) are re-run with sharing off and must match on the timing
//    projection - sharing may only change what the ledger charges, never
//    when anything runs;
//  - open-loop draws (scenario/traffic.hpp: the batch is generated by a
//    drawn arrival process instead of hand-rolled) additionally record the
//    workload as a trace and replay it as a fixed batch - the closed-loop
//    replay must reproduce the open-loop run's digest byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"

namespace llamcat::scenario {

/// A fully-drawn fuzz scenario: everything DecodePass needs, plus a
/// one-line human summary for failure reports.
struct FuzzScenario {
  SimConfig cfg;
  ModelShape model;
  std::vector<RequestSpec> requests;
  DecodePassConfig pass_cfg;  // mode is always kContinuous
  /// True when `requests` came out of generate_traffic(traffic) instead of
  /// the hand-rolled batch draw - run_fuzz_seed adds the trace-replay
  /// equivalence check for these.
  bool open_loop = false;
  TrafficConfig traffic;

  /// "3 reqs (seq 64/96/320, arrivals 0/0/41000), admit=srf budget=...".
  [[nodiscard]] std::string summary() const;
};

/// Deterministically expands `seed` into a scenario. Same seed, same
/// scenario, on every platform (the draw uses only common/rng.hpp).
[[nodiscard]] FuzzScenario draw_scenario(std::uint64_t seed);

/// Outcome of fuzzing one seed: `violations` is empty on a clean pass,
/// otherwise each entry is one self-contained line (an invariant breach, a
/// determinism diff, or an unexpected engine exception). `digest` is the
/// canonical batch_stats_digest of the audited run (empty when the engine
/// threw before producing stats) - two sweeps over the same seeds are
/// equivalent iff their per-seed digests compare equal, which is how the
/// --jobs=N parallel sweep is proven bit-identical to serial order.
struct FuzzResult {
  std::uint64_t seed = 0;
  std::vector<std::string> violations;
  std::string digest;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Runs the full double-run + contract harness for one seed (see the
/// header comment). Never throws: engine exceptions become violations.
/// Same as run_fuzz_scenario(seed, draw_scenario(seed)).
[[nodiscard]] FuzzResult run_fuzz_seed(std::uint64_t seed);

/// Runs the harness on an already-drawn (possibly adjusted) scenario; `seed`
/// only labels the result and picks the every-4th fast-path rerun.
[[nodiscard]] FuzzResult run_fuzz_scenario(std::uint64_t seed,
                                           const FuzzScenario& sc);

/// Runs seeds base_seed .. base_seed+n-1 through parallel_map, `jobs`-wide
/// (0 = hardware concurrency, 1 = in the caller's thread). Results come
/// back in seed order, bit-identical to a serial sweep regardless of
/// thread interleaving.
[[nodiscard]] std::vector<FuzzResult> run_fuzz_sweep(std::uint64_t base_seed,
                                                     std::uint64_t n,
                                                     std::size_t jobs = 1);

/// Canonical text form of everything a run reports (every stat, landmark,
/// counter and per-segment row). Two runs are byte-identical iff their
/// digests compare equal - the determinism definition used by the fuzzer
/// and by tests/test_determinism.cpp.
[[nodiscard]] std::string batch_stats_digest(const BatchStats& stats);

}  // namespace llamcat::scenario
