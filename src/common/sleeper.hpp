// Sleep bookkeeping for the machine components the System takes out of its
// step loop while their inputs are frozen (vector cores, LLC slices). A
// sleeper owes one frozen cycle of its wait profile for every cycle it is
// not ticked, and pays them in bulk when it wakes or its counters are read.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/types.hpp"

namespace llamcat {

/// Base of a sleeping component (CRTP). `Profile` carries `busy` and
/// `next_event`, the cycle the sleeper must tick again by itself
/// (kNeverCycle when only an input wakes it). `Component` provides
///   void apply_owed(const Profile& p, std::uint64_t cycles);
/// which must leave it exactly as `cycles` frozen ticks under `p` would.
template <class Component, class Profile>
class Sleeper {
 public:
  /// Sleeps from cycle `from` on (`p` not busy): the System stops ticking
  /// the component, and every cycle from `from` on is owed as one frozen
  /// cycle of `p`.
  void sleep(const Profile& p, Cycle from) {
    assert(!p.busy && !asleep_);
    asleep_ = true;
    owed_from_ = from;
    owed_ = p;
  }
  /// Pays the frozen cycles owed up to and including `through`; the
  /// component stays asleep. A no-op on an awake component.
  void settle(Cycle through) {
    if (!asleep_) return;
    assert(through + 1 >= owed_from_);
    const std::uint64_t cycles = through + 1 - owed_from_;
    owed_from_ = through + 1;
    static_cast<Component*>(this)->apply_owed(owed_, cycles);
  }
  /// settle(through), then leave sleep: the next tick is a full one.
  void wake(Cycle through) {
    settle(through);
    asleep_ = false;
  }
  [[nodiscard]] bool asleep() const { return asleep_; }

 private:
  bool asleep_ = false;
  Cycle owed_from_ = 0;
  Profile owed_;
};

}  // namespace llamcat
