// Component microbenchmarks (google-benchmark): throughput of the MSHR,
// cache array, DRAM controller, trace generator and the full simulator.
#include <benchmark/benchmark.h>

#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "common/rng.hpp"
#include "dram/dram_system.hpp"
#include "sim/experiment.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {
namespace {

void BM_MshrAddRelease(benchmark::State& state) {
  Mshr mshr(6, 8);
  std::vector<MshrTarget> targets;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const Addr line = (n++ % 6) * kLineBytes;
    if (mshr.find(line) == nullptr && mshr.entry_available()) {
      mshr.add(line, MshrTarget{0, 0, false}, 0);
    } else if (mshr.find(line) != nullptr) {
      mshr.release(line, targets);
      benchmark::DoNotOptimize(targets.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MshrAddRelease);

void BM_CacheArrayTouchFill(benchmark::State& state) {
  CacheArray array(4096, 8, ReplPolicy::kLru, InsertPolicy::kMru);
  Xoshiro256 rng(7);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const Addr line = rng.below(1 << 20) * kLineBytes;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_index(line) & 4095);
    if (!array.touch(set, line)) array.fill(set, line, false);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CacheArrayTouchFill);

void BM_DramStreamRead(benchmark::State& state) {
  const SimConfig cfg = SimConfig::table5();
  DramSystem dram(cfg.dram, cfg.core_hz);
  std::uint64_t completed = 0;
  dram.on_read_complete = [&](const DramCompletion&) { ++completed; };
  Addr next = 0;
  for (auto _ : state) {
    const DramRequest r{next, false, 0};
    if (dram.can_accept(r)) {
      dram.enqueue(r);
      next += kLineBytes;
    }
    dram.tick_core_cycle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_DramStreamRead);

void BM_TraceGenInstrAt(benchmark::State& state) {
  const OperatorSpec spec =
      OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  Mapping m;
  TraceGen gen(spec, m);
  std::uint64_t tb = 0, i = 0, n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.instr_at(tb, static_cast<std::uint32_t>(i)));
    if (++i >= gen.instr_count(tb)) {
      i = 0;
      tb = (tb + 1) % gen.num_tbs();
    }
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGenInstrAt);

void BM_FullSimSmall(benchmark::State& state) {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  const Workload wl = Workload::logit(m, 128, cfg);
  for (auto _ : state) {
    const SimStats s = run_simulation(cfg, wl);
    benchmark::DoNotOptimize(s.cycles);
  }
}
BENCHMARK(BM_FullSimSmall)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llamcat
