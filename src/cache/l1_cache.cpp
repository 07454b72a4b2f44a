#include "cache/l1_cache.hpp"

#include <algorithm>
#include <cassert>

namespace llamcat {

L1Cache::L1Cache(const L1Config& cfg, CoreId core, std::uint64_t seed)
    : cfg_(cfg),
      core_(core),
      num_sets_(static_cast<std::uint32_t>(cfg.size_bytes /
                                           (cfg.assoc * kLineBytes))),
      array_(num_sets_, cfg.assoc, cfg.repl, cfg.insert, seed),
      miss_index_(cfg.miss_queue_entries) {
  misses_.reserve(cfg_.miss_queue_entries);
}

L1Cache::PendingMiss* L1Cache::find_miss(Addr line_addr) {
  const std::uint32_t* i = miss_index_.find(line_addr);
  return i == nullptr ? nullptr : &misses_[*i];
}

L1Cache::LoadResult L1Cache::access_load(Addr line_addr, LoadTag tag) {
  assert(line_addr == line_align(line_addr));
  if (array_.touch(set_of(line_addr), line_addr)) {
    ++counters_.load_hits;
    return LoadResult::kHit;
  }
  if (PendingMiss* m = find_miss(line_addr)) {
    m->waiters.push_back(tag);
    ++counters_.load_merges;
    return LoadResult::kMissMerged;
  }
  if (miss_queue_full()) {
    ++counters_.load_blocked;
    return LoadResult::kBlocked;
  }
  PendingMiss m;
  m.line_addr = line_addr;
  if (!waiter_pool_.empty()) {
    m.waiters = std::move(waiter_pool_.back());
    waiter_pool_.pop_back();
    m.waiters.clear();
  }
  m.waiters.push_back(tag);
  miss_index_.insert(line_addr, static_cast<std::uint32_t>(misses_.size()));
  misses_.push_back(std::move(m));
  outbox_.push_back(line_addr);
  ++counters_.load_misses;
  return LoadResult::kMissNew;
}

bool L1Cache::access_store(Addr line_addr) {
  assert(line_addr == line_align(line_addr));
  // Write-through: the line stays clean in L1; write-no-allocate: a store
  // miss does not allocate. Either way the store is forwarded by the core.
  const bool hit = array_.touch(set_of(line_addr), line_addr);
  if (hit) {
    ++counters_.store_hits;
  } else {
    ++counters_.store_misses;
  }
  return hit;
}

void L1Cache::on_fill(Addr line_addr, std::vector<LoadTag>& waiters) {
  waiters.clear();
  const std::uint32_t set = set_of(line_addr);
  if (!array_.probe(set, line_addr)) {
    // Allocate-on-fill; L1 lines are never dirty (write-through), so the
    // victim needs no writeback.
    array_.fill(set, line_addr, /*dirty=*/false);
    ++counters_.fills;
  }
  const std::uint32_t* slot = miss_index_.find(line_addr);
  if (slot == nullptr) return;
  const std::uint32_t i = *slot;
  // The caller gets the miss's waiters, and the pool the caller's empty
  // buffer.
  std::vector<LoadTag>& w = misses_[i].waiters;
  waiters.swap(w);
  waiter_pool_.push_back(std::move(w));
  // Swap-erase: line addresses in the miss queue are unique, and no
  // observable behavior depends on the queue's internal order.
  miss_index_.erase(line_addr);
  if (i + 1 != misses_.size()) {
    misses_[i] = std::move(misses_.back());
    *miss_index_.find(misses_[i].line_addr) = i;
  }
  misses_.pop_back();
}

StatSet L1Cache::stats() const {
  StatSet s;
  s.set("l1.load_hits", counters_.load_hits);
  s.set("l1.load_merges", counters_.load_merges);
  s.set("l1.load_misses", counters_.load_misses);
  s.set("l1.load_blocked", counters_.load_blocked);
  s.set("l1.store_hits", counters_.store_hits);
  s.set("l1.store_misses", counters_.store_misses);
  s.set("l1.fills", counters_.fills);
  return s;
}

}  // namespace llamcat
