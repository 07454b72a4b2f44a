#include "cache/cache_array.hpp"

#include <cassert>
#include <limits>

namespace llamcat {

CacheArray::CacheArray(std::uint32_t num_sets, std::uint32_t assoc,
                       ReplPolicy repl, InsertPolicy insert,
                       std::uint64_t seed)
    : num_sets_(num_sets),
      assoc_(assoc),
      repl_(repl),
      insert_(insert),
      ways_(static_cast<std::size_t>(num_sets) * assoc),
      plru_(num_sets, 0),
      rng_(seed) {
  assert(num_sets_ > 0 && assoc_ > 0);
  constexpr std::size_t kPerLine = 64 / sizeof(Addr);
  const std::size_t n = static_cast<std::size_t>(num_sets) * assoc;
  tag_store_.assign(n + kPerLine - 1, kNoAddr);
  const auto misalign = reinterpret_cast<std::uintptr_t>(tag_store_.data()) % 64;
  tag_off_ = misalign == 0 ? 0 : (64 - misalign) / sizeof(Addr);
}

std::uint32_t CacheArray::find(std::uint32_t set, Addr line_addr) const {
  const Addr* t = tags(set);
  std::uint32_t w = 0;
  while (w < assoc_ && t[w] != line_addr) ++w;
  return w;
}

bool CacheArray::probe(std::uint32_t set, Addr line_addr) const {
  return find(set, line_addr) != assoc_;
}

void CacheArray::promote(std::uint32_t set, std::uint32_t w) {
  if (repl_ == ReplPolicy::kFifo) return;  // eviction order fixed at insert
  Way& meta = way(set, w);
  meta.stamp = ++tick_;
  meta.rrpv = 0;  // SRRIP: re-referenced lines become near-immediate
  if (repl_ == ReplPolicy::kTreePlru) set_plru_bits(set, w);
}

bool CacheArray::touch(std::uint32_t set, Addr line_addr) {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_) return false;
  promote(set, w);
  return true;
}

void CacheArray::set_plru_bits(std::uint32_t set, std::uint32_t way) {
  // Classic tree-PLRU: walk from root, flip bits to point away from `way`.
  std::uint32_t node = 0;  // index within the implicit tree, 0-based
  std::uint32_t lo = 0, hi = assoc_;
  std::uint32_t& bits = plru_[set];
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = way >= mid;
    if (right) {
      bits &= ~(1u << node);  // 0 => next victim on the left
      lo = mid;
      node = 2 * node + 2;
    } else {
      bits |= (1u << node);  // 1 => next victim on the right
      hi = mid;
      node = 2 * node + 1;
    }
  }
}

std::uint32_t CacheArray::plru_victim(std::uint32_t set) const {
  std::uint32_t node = 0;
  std::uint32_t lo = 0, hi = assoc_;
  const std::uint32_t bits = plru_[set];
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = (bits >> node) & 1u;
    if (right) {
      lo = mid;
      node = 2 * node + 2;
    } else {
      hi = mid;
      node = 2 * node + 1;
    }
  }
  return lo;
}

std::uint32_t CacheArray::victim_way(std::uint32_t set) {
  // Invalid way first.
  const std::uint32_t free_way = find(set, kNoAddr);
  if (free_way != assoc_) return free_way;
  Way* base = &way(set, 0);
  switch (repl_) {
    case ReplPolicy::kLru: {
      std::uint32_t victim = 0;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].stamp < oldest) {
          oldest = base[w].stamp;
          victim = w;
        }
      }
      return victim;
    }
    case ReplPolicy::kTreePlru:
      return plru_victim(set);
    case ReplPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.below(assoc_));
    case ReplPolicy::kSrrip: {
      // SRRIP: evict the first way predicted "distant" (RRPV == 3); if
      // none, age every way and retry. Terminates in <= 3 rounds.
      for (;;) {
        for (std::uint32_t w = 0; w < assoc_; ++w) {
          if (base[w].rrpv == 3) return w;
        }
        for (std::uint32_t w = 0; w < assoc_; ++w) {
          if (base[w].rrpv < 3) ++base[w].rrpv;
        }
      }
    }
    case ReplPolicy::kFifo: {
      std::uint32_t victim = 0;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].stamp < oldest) {
          oldest = base[w].stamp;
          victim = w;
        }
      }
      return victim;
    }
  }
  return 0;
}

std::optional<CacheArray::Evicted> CacheArray::fill(std::uint32_t set,
                                                    Addr line_addr,
                                                    bool dirty) {
  assert(line_addr != kNoAddr && !probe(set, line_addr));
  const std::uint32_t w = victim_way(set);
  Addr& tag = tags(set)[w];
  Way& meta = way(set, w);
  std::optional<Evicted> evicted;
  if (tag != kNoAddr) evicted = Evicted{tag, meta.dirty};
  tag = line_addr;
  meta.dirty = dirty;
  if (repl_ == ReplPolicy::kFifo) {
    // FIFO ignores the insertion policy: age is fixed at insertion time.
    meta.stamp = ++tick_;
    return evicted;
  }
  if (repl_ == ReplPolicy::kSrrip) {
    // SRRIP insertion: "long" for MRU-style insert, "distant" for
    // streaming (SRRIP-D); stamp kept for deterministic test inspection.
    meta.rrpv = insert_ == InsertPolicy::kMru ? 2 : 3;
    meta.stamp = insert_ == InsertPolicy::kMru ? ++tick_ : 0;
    return evicted;
  }
  if (insert_ == InsertPolicy::kMru) {
    promote(set, w);
  } else {
    // Streaming insert: stamp 0 makes this line the LRU victim candidate.
    meta.stamp = 0;
  }
  return evicted;
}

bool CacheArray::mark_dirty(std::uint32_t set, Addr line_addr) {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_) return false;
  way(set, w).dirty = true;
  return true;
}

bool CacheArray::invalidate(std::uint32_t set, Addr line_addr) {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_) return false;
  tags(set)[w] = kNoAddr;
  way(set, w).dirty = false;
  return true;
}

std::uint8_t CacheArray::rrpv_of(std::uint32_t set, Addr line_addr) const {
  const std::uint32_t w = find(set, line_addr);
  return w != assoc_ ? way(set, w).rrpv : 0;
}

std::uint64_t CacheArray::valid_count() const {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < num_sets_; ++s) {
    const Addr* t = tags(s);
    for (std::uint32_t w = 0; w < assoc_; ++w) n += t[w] != kNoAddr ? 1 : 0;
  }
  return n;
}

std::vector<Addr> CacheArray::set_contents(std::uint32_t set) const {
  std::vector<Addr> out;
  const Addr* t = tags(set);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (t[w] != kNoAddr) out.push_back(t[w]);
  }
  return out;
}

}  // namespace llamcat
