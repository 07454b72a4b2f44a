// parallel_map: the one fan-out for a batch of independent runs (each
// simulation itself is single-threaded and deterministic), built on a
// fixed-size ThreadPool and the TaskGroup latch that joins the batch with
// deterministic exception propagation.
//
// Both classes are built on the annotated primitives in common/sync.hpp,
// so clang -Wthread-safety machine-checks every access to the queue and
// the latch counters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace llamcat {

class ThreadPool {
 public:
  /// `num_threads == 0` selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` with no result channel. Pair with a TaskGroup (or
  /// other external completion signal) to join and observe exceptions.
  void post(std::function<void()> fn) EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> jobs_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
};

/// Joins a fixed-size batch of pool jobs. Each job writes its own disjoint
/// output slot (no lock needed for the payload); the group only counts
/// completions and collects per-slot exceptions. wait() rethrows the
/// exception from the lowest-indexed failed slot, so a parallel sweep
/// fails with the same exception the sequential loop would have thrown
/// first - error behavior stays independent of thread scheduling.
class TaskGroup {
 public:
  /// `slots` is the number of run() calls that will be issued.
  explicit TaskGroup(std::size_t slots);

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on `pool` as the job for `slot` (each slot exactly
  /// once). Exceptions from `fn` are captured into the slot.
  void run(ThreadPool& pool, std::size_t slot, std::function<void()> fn);

  /// Blocks until every slot has completed, then rethrows the
  /// lowest-indexed captured exception, if any.
  void wait() EXCLUDES(mu_);

 private:
  void finish(std::size_t slot, std::exception_ptr error) EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::size_t pending_ GUARDED_BY(mu_);
  /// Slot-indexed; written once by the owning job, read after the latch.
  std::vector<std::exception_ptr> errors_ GUARDED_BY(mu_);
};

/// Runs fn(0) .. fn(n-1) and returns their results indexed by i. `jobs` is
/// the worker count: 0 = hardware concurrency, 1 = every call in the
/// caller's thread, in index order (as is any range of at most one item).
/// Each call writes its own pre-sized slot, so the result is bit-identical
/// to the serial loop regardless of which worker finishes first; each call
/// must itself be a single-threaded deterministic run (every System is).
/// On failure the lowest-indexed exception is rethrown - the one the serial
/// loop would have thrown first. R must be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t jobs, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out(n);
  if (jobs == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  ThreadPool pool(std::min(jobs, n));  // min(0, n) keeps "0 = hardware"
  TaskGroup group(n);
  for (std::size_t i = 0; i < n; ++i) {
    group.run(pool, i, [&out, &fn, i] { out[i] = fn(i); });
  }
  group.wait();
  return out;
}

}  // namespace llamcat
