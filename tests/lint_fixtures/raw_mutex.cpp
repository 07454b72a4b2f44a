// Fixture: the raw-mutex rule. Simulation code shares no mutable state
// across threads: each parallel_map call writes its own pre-sized slot, so
// there is nothing to lock. A lock means shared state; the fix is to
// restructure so every thread owns what it writes.
#include <mutex>

struct UncheckedQueue {
  std::mutex mu;  // lint:expect(raw-mutex)
  int pending = 0;
};

void bump(UncheckedQueue& q) {
  std::scoped_lock lock(q.mu);  // lint:expect(raw-mutex)
  ++q.pending;
}

// Honored suppression: code interfacing with a third-party API that hands
// out std primitives has no say in how that state is shared.
struct ExternalHandle {
  // lint:allow(raw-mutex): third-party callback API hands us its std::mutex
  std::mutex* borrowed = nullptr;
};
