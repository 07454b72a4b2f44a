#include "core/speculation.hpp"

#include <cassert>

#include "common/config.hpp"

namespace llamcat {

Addr HitBuffer::record_hit(Addr line_addr) {
  const auto depth = static_cast<std::uint32_t>(ring_.size());
  if (depth == 0) return kNoAddr;
  Addr evicted = kNoAddr;
  if (size_ == depth) {
    // Full: the oldest copy leaves before the new one takes its slot.
    const Addr old = ring_[head_];
    std::uint32_t* n = counts_.find(old);
    assert(n != nullptr);
    if (--*n == 0) {
      counts_.erase(old);
      evicted = old;
    }
    head_ = head_ + 1 == depth ? 0 : head_ + 1;
    --size_;
  }
  std::uint32_t tail = head_ + size_;
  if (tail >= depth) tail -= depth;
  ring_[tail] = line_addr;
  ++size_;
  if (std::uint32_t* n = counts_.find(line_addr)) {
    ++*n;
  } else {
    counts_.insert(line_addr, 1);
  }
  return evicted;
}

SentReqs::SentReqs(std::uint32_t depth, std::uint32_t lifetime)
    : lifetime_(lifetime), ring_(depth) {
  ArbConfig::check_sent_reqs_depth(depth, lifetime);
}

void SentReqs::push(Addr line_addr, bool spec_hit, Cycle now) {
  const auto depth = static_cast<std::uint32_t>(ring_.size());
  if (depth == 0) return;
  // The lookup pipeline holds at most lifetime_ requests and the
  // constructor rejects a depth below that, so with expire() run before
  // each cycle's push the ring never fills.
  assert(size_ < depth && "sent_reqs overflow: push without expire()");
  std::uint32_t tail = head_ + size_;
  if (tail >= depth) tail -= depth;
  ring_[tail] = Entry{line_addr, spec_hit, now};
  ++size_;
}

bool SentReqs::contains_mshr_bound(Addr line_addr) const {
  const auto depth = static_cast<std::uint32_t>(ring_.size());
  std::uint32_t i = head_;
  for (std::uint32_t k = 0; k < size_; ++k) {
    const Entry& e = ring_[i];
    if (e.line_addr == line_addr && !e.spec_hit) return true;
    i = i + 1 == depth ? 0 : i + 1;
  }
  return false;
}

}  // namespace llamcat
