#include "cache/mshr.hpp"

#include <algorithm>
#include <cassert>

namespace llamcat {

Mshr::Mshr(std::uint32_t num_entries, std::uint32_t num_targets)
    : num_entries_(num_entries),
      num_targets_(num_targets),
      addrs_(num_entries),
      entries_(num_entries) {
  assert(num_entries_ > 0 && num_targets_ > 0);
}

Mshr::AddResult Mshr::add(Addr line_addr, const MshrTarget& target,
                          Cycle now) {
  if (Entry* e = find(line_addr)) {
    if (e->targets.size() >= num_targets_) return AddResult::kNoTargetFree;
    e->targets.push_back(target);
    return AddResult::kMerged;
  }
  if (!entry_available()) return AddResult::kNoEntryFree;
  Entry& e = entries_[n_];
  e.line_addr = line_addr;
  e.targets.clear();
  e.targets.push_back(target);
  e.alloc_cycle = now;
  addrs_[n_] = line_addr;
  ++n_;
  return AddResult::kNewEntry;
}

void Mshr::release(Addr line_addr, std::vector<MshrTarget>& targets) {
  const std::uint32_t i = index_of(line_addr);
  assert(i != n_ && "release of unknown MSHR entry");
  targets.clear();
  targets.swap(entries_[i].targets);
  // Close the gap in allocation order; the freed slot (and the buffer it
  // now holds) moves to the end of the live range.
  std::rotate(entries_.begin() + i, entries_.begin() + i + 1,
              entries_.begin() + n_);
  std::rotate(addrs_.begin() + i, addrs_.begin() + i + 1,
              addrs_.begin() + n_);
  --n_;
}

}  // namespace llamcat
