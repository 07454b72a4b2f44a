#include "cache/cache_array.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace llamcat {

CacheArray::CacheArray(std::uint32_t num_sets, std::uint32_t assoc,
                       ReplPolicy repl, InsertPolicy insert,
                       std::uint64_t seed)
    : num_sets_(num_sets),
      assoc_(assoc),
      repl_(repl),
      insert_(insert),
      words_(static_cast<std::size_t>(num_sets) * assoc, 0),
      clocks_(repl == ReplPolicy::kLru || repl == ReplPolicy::kFifo ? num_sets
                                                                     : 0,
              0),
      plru_(repl == ReplPolicy::kTreePlru ? num_sets : 0, 0),
      rng_(seed) {
  if (const char* e = cache_assoc_error(assoc, repl))
    throw std::invalid_argument(std::string("CacheArray: ") + e);
  assert(num_sets_ > 0);
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

std::uint8_t CacheArray::next_stamp(std::uint32_t set) {
  if (clocks_[set] == kMaxStamp) renormalise(set);
  return ++clocks_[set];
}

void CacheArray::renormalise(std::uint32_t set) {
  // A victim is chosen by comparing stamps within one set only, so the
  // set's stamps can be replaced by their dense ranks: order and equality
  // are kept. With a mask of the stamps in use, plus stamp 0 so that the
  // streaming-insert stamp stays 0, a stamp's rank is the number of set
  // bits below it. The ranks end at most at assoc_ <= 64, and the clock
  // restarts at the top rank.
  std::uint8_t* m = words(set);
  std::uint64_t used[2] = {1, 0};
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    const unsigned stamp = m[w] & kState;
    used[stamp / 64] |= std::uint64_t{1} << (stamp % 64);
  }
  const unsigned low_count = static_cast<unsigned>(std::popcount(used[0]));
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    const unsigned stamp = m[w] & kState;
    const std::uint64_t below = (std::uint64_t{1} << (stamp % 64)) - 1;
    const unsigned rank =
        stamp < 64 ? static_cast<unsigned>(std::popcount(used[0] & below))
                   : low_count + static_cast<unsigned>(
                                     std::popcount(used[1] & below));
    m[w] = static_cast<std::uint8_t>((m[w] & kDirty) | rank);
  }
  clocks_[set] =
      static_cast<std::uint8_t>(low_count + std::popcount(used[1]) - 1);
}

void CacheArray::promote(std::uint32_t set, std::uint32_t w) {
  std::uint8_t& word = words(set)[w];
  switch (repl_) {
    case ReplPolicy::kLru: {
      const std::uint8_t stamp = next_stamp(set);
      word = static_cast<std::uint8_t>((word & kDirty) | stamp);
      return;
    }
    case ReplPolicy::kSrrip:
      word &= kDirty;  // re-referenced lines become near-immediate (RRPV 0)
      return;
    case ReplPolicy::kTreePlru:
      set_plru_bits(set, w);
      return;
    case ReplPolicy::kFifo:  // eviction order fixed at insert
    case ReplPolicy::kRandom:
      return;
  }
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
  std::uint8_t* m = words(set);
  switch (repl_) {
    case ReplPolicy::kLru:
    case ReplPolicy::kFifo: {
      std::uint32_t victim = 0;
      unsigned oldest = kDirty;  // above every stamp
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        const unsigned stamp = m[w] & kState;
        if (stamp < oldest) {
          oldest = stamp;
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
          if ((m[w] & kState) == 3) return w;
        }
        for (std::uint32_t w = 0; w < assoc_; ++w) {
          if ((m[w] & kState) < 3) ++m[w];
        }
      }
    }
  }
  return 0;
}

std::optional<CacheArray::Evicted> CacheArray::fill(std::uint32_t set,
                                                    Addr line_addr,
                                                    bool dirty) {
  assert(line_addr != kNoAddr && !probe(set, line_addr));
  const std::uint32_t w = victim_way(set);
  // The new line's state, computed before the slot changes: taking a stamp
  // may renormalise this set.
  std::uint8_t state = 0;
  switch (repl_) {
    case ReplPolicy::kFifo:
      // FIFO ignores the insertion policy: age is fixed at insertion time.
      state = next_stamp(set);
      break;
    case ReplPolicy::kSrrip:
      // SRRIP insertion: "long" for MRU-style insert, "distant" for
      // streaming (SRRIP-D).
      state = insert_ == InsertPolicy::kMru ? 2 : 3;
      break;
    case ReplPolicy::kLru:
      // Streaming insert: stamp 0 makes this line the LRU victim candidate.
      state = insert_ == InsertPolicy::kMru ? next_stamp(set) : 0;
      break;
    case ReplPolicy::kTreePlru:
      if (insert_ == InsertPolicy::kMru) set_plru_bits(set, w);
      break;
    case ReplPolicy::kRandom:
      break;
  }
  Addr& tag = tags(set)[w];
  std::uint8_t& word = words(set)[w];
  std::optional<Evicted> evicted;
  if (tag != kNoAddr) evicted = Evicted{tag, (word & kDirty) != 0};
  tag = line_addr;
  word = static_cast<std::uint8_t>((dirty ? kDirty : 0) | state);
  return evicted;
}

bool CacheArray::mark_dirty(std::uint32_t set, Addr line_addr) {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_) return false;
  words(set)[w] |= kDirty;
  return true;
}

bool CacheArray::invalidate(std::uint32_t set, Addr line_addr) {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_) return false;
  tags(set)[w] = kNoAddr;
  words(set)[w] = 0;
  return true;
}

std::uint8_t CacheArray::rrpv_of(std::uint32_t set, Addr line_addr) const {
  const std::uint32_t w = find(set, line_addr);
  if (w == assoc_ || repl_ != ReplPolicy::kSrrip) return 0;
  return static_cast<std::uint8_t>(words(set)[w] & kState);
}

std::size_t CacheArray::heap_bytes() const {
  return tag_store_.capacity() * sizeof(Addr) + words_.capacity() +
         clocks_.capacity() + plru_.capacity() * sizeof(std::uint32_t);
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
