#include "scenario/kv_block_pool.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace llamcat::scenario {

void KvBlockPoolConfig::validate() const {
  if (block_bytes == 0 || block_bytes % kLineBytes != 0) {
    throw std::invalid_argument(
        "KvBlockPoolConfig: block_bytes must be a positive multiple of the " +
        std::to_string(kLineBytes) +
        "-byte cache line (KV is line-granular everywhere else in the "
        "simulator); got " +
        std::to_string(block_bytes));
  }
}

KvBlockPool::KvBlockPool(const KvBlockPoolConfig& cfg,
                         std::vector<RequestLayout> layouts)
    : cfg_(cfg),
      layouts_(std::move(layouts)),
      state_(layouts_.size(), ReqState::kNew),
      private_swapped_(layouts_.size(), 0) {
  cfg_.validate();
  for (std::size_t i = 0; i < layouts_.size(); ++i) {
    const RequestLayout& l = layouts_[i];
    if (l.prefix_group == kNoPrefixGroup && l.prefix_bytes != 0) {
      throw std::invalid_argument(
          "KvBlockPool: request " + std::to_string(i) +
          " has prefix bytes but no prefix group");
    }
    if (l.prefix_bytes > l.footprint_bytes) {
      throw std::invalid_argument(
          "KvBlockPool: request " + std::to_string(i) + " prefix (" +
          std::to_string(l.prefix_bytes) + " B) exceeds its footprint (" +
          std::to_string(l.footprint_bytes) + " B)");
    }
  }
}

std::uint64_t KvBlockPool::shared_blocks(std::size_t i) const {
  return layouts_[i].prefix_bytes / cfg_.block_bytes;
}

std::uint64_t KvBlockPool::private_whole_blocks(std::size_t i) const {
  return layouts_[i].footprint_bytes / cfg_.block_bytes - shared_blocks(i);
}

std::uint64_t KvBlockPool::private_bytes(std::size_t i) const {
  return layouts_[i].footprint_bytes - shared_blocks(i) * cfg_.block_bytes;
}

std::uint64_t KvBlockPool::block_key(std::uint32_t group,
                                     std::uint64_t index) {
  // (group, index) packed into one key. Block indices are footprints over
  // block sizes - far below 2^32 for any representable scenario.
  return (static_cast<std::uint64_t>(group) << 32) | index;
}

const KvBlockPool::Entry* KvBlockPool::find(std::uint32_t group,
                                            std::uint64_t index) const {
  const auto it = table_.find(block_key(group, index));
  return it == table_.end() ? nullptr : &it->second;
}

void KvBlockPool::require_state(std::size_t i, ReqState expect,
                                const char* call) const {
  if (state_[i] == expect) return;
  const char* actual = state_[i] == ReqState::kNew        ? "never admitted"
                       : state_[i] == ReqState::kActive   ? "active (pinned)"
                       : state_[i] == ReqState::kReleased ? "released"
                                                          : "finished";
  throw std::logic_error("KvBlockPool::" + std::string(call) + ": request " +
                         std::to_string(i) + " is " + actual);
}

KvBlockPool::Admission KvBlockPool::admit(std::size_t i) {
  require_state(i, ReqState::kNew, "admit");
  Admission a;
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    ++lookups_;
    ++a.lookup_blocks;
    auto [it, inserted] = table_.try_emplace(block_key(group, b));
    Entry& e = it->second;
    if (inserted) {
      a.charged_bytes += cfg_.block_bytes;
    } else if (e.resident) {
      ++hits_;
      ++a.hit_blocks;
      a.hit_bytes += cfg_.block_bytes;
    } else {
      // A peer released the block to the host tier and nobody re-pinned it
      // yet: reuse it, paying the refetch transfer instead of the (free)
      // allocation - the content is the shared prefix, not recomputable
      // state this request owns.
      e.resident = true;
      ++a.refetch_blocks;
      a.charged_bytes += cfg_.block_bytes;
    }
    ++e.pins;
    ++e.holders;
  }
  a.charged_bytes += private_bytes(i);
  a.refetch_bytes = a.refetch_blocks * cfg_.block_bytes;
  a.refetch_cycles = a.refetch_blocks * cfg_.cycles_per_block();
  shared_bytes_ += a.hit_bytes;
  charged_bytes_ += a.charged_bytes;
  logical_bytes_ += layouts_[i].footprint_bytes;
  state_[i] = ReqState::kActive;
  return a;
}

KvBlockPool::Admission KvBlockPool::resume(std::size_t i) {
  require_state(i, ReqState::kReleased, "resume");
  Admission a;
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    Entry& e = table_.at(block_key(group, b));
    if (!e.resident) {
      e.resident = true;
      ++a.refetch_blocks;
      a.charged_bytes += cfg_.block_bytes;
    }
    ++e.pins;
  }
  a.refetch_blocks += private_swapped_[i];
  a.charged_bytes += private_swapped_[i] * cfg_.block_bytes;
  private_swapped_[i] = 0;
  a.refetch_bytes = a.refetch_blocks * cfg_.block_bytes;
  a.refetch_cycles = a.refetch_blocks * cfg_.cycles_per_block();
  state_[i] = ReqState::kActive;
  return a;
}

std::uint64_t KvBlockPool::release(std::size_t i) {
  require_state(i, ReqState::kActive, "release");
  std::uint64_t freed = 0;
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    Entry& e = table_.at(block_key(group, b));
    // Active implies every owned block is pinned, and a pinned block is
    // resident (a refetch precedes every re-pin).
    if (e.pins == 0 || !e.resident) {
      throw std::logic_error(
          "KvBlockPool::release: shared block of an active request is "
          "unpinned or on the host tier (corrupt refcounts)");
    }
    --e.pins;
    if (e.pins == 0) {
      // Last pinner gone: the block is cold and swappable.
      e.resident = false;
      freed += cfg_.block_bytes;
    }
    // pins > 0: a peer still runs against this block - the swap is refused
    // and the block stays resident and charged (refcounted eviction).
  }
  const std::uint64_t priv = private_whole_blocks(i) - private_swapped_[i];
  private_swapped_[i] += priv;
  freed += priv * cfg_.block_bytes;
  // The partial tail (if any) stays resident and charged.
  state_[i] = ReqState::kReleased;
  return freed;
}

std::uint64_t KvBlockPool::finish(std::size_t i) {
  if (state_[i] == ReqState::kReleased) {
    throw std::logic_error("KvBlockPool::finish: request " +
                           std::to_string(i) +
                           " is released - it must resume (refetching its "
                           "host-tier blocks) before it can finish");
  }
  require_state(i, ReqState::kActive, "finish");
  std::uint64_t freed = 0;
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    auto it = table_.find(block_key(group, b));
    Entry& e = it->second;
    if (e.pins == 0 || !e.resident) {
      throw std::logic_error(
          "KvBlockPool::finish: shared block of an active request is "
          "unpinned or on the host tier (corrupt refcounts)");
    }
    --e.pins;
    --e.holders;
    if (e.holders == 0) {
      // Last holder gone: the block leaves the pool and its charge drops.
      table_.erase(it);
      freed += cfg_.block_bytes;
    }
    // holders > 0: a peer (running or preempted) still owns the block, so
    // it stays resident and charged - a later admission of the same prefix
    // hits it for free.
  }
  freed += private_bytes(i);
  state_[i] = ReqState::kFinished;
  return freed;
}

std::uint64_t KvBlockPool::admit_cost(std::size_t i) const {
  std::uint64_t cost = private_bytes(i);
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    const Entry* e = find(group, b);
    // Absent (allocate) and host-tier (refetch) blocks charge; resident
    // ones are free hits.
    if (e == nullptr || !e->resident) {
      cost += cfg_.block_bytes;
    }
  }
  return cost;
}

std::uint64_t KvBlockPool::resume_cost(std::size_t i) const {
  std::uint64_t cost = private_swapped_[i] * cfg_.block_bytes;
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    const Entry* e = find(group, b);
    if (e != nullptr && !e->resident) {
      cost += cfg_.block_bytes;
    }
  }
  return cost;
}

std::uint64_t KvBlockPool::releasable_blocks(std::size_t i) const {
  if (state_[i] != ReqState::kActive) return 0;
  std::uint64_t n = private_whole_blocks(i) - private_swapped_[i];
  const std::uint32_t group = layouts_[i].prefix_group;
  const std::uint64_t nshared = shared_blocks(i);
  for (std::uint64_t b = 0; b < nshared; ++b) {
    const Entry* e = find(group, b);
    // Sole pinner: releasing would swap the block. A peer's pin refuses it.
    if (e != nullptr && e->resident && e->pins == 1) {
      ++n;
    }
  }
  return n;
}

}  // namespace llamcat::scenario
