// parallel_map: the one fan-out for a batch of independent runs (each
// simulation itself is single-threaded and deterministic). Workers claim
// indices from one atomic counter and write disjoint pre-sized slots, so
// joining the threads is the only synchronization the batch needs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace llamcat {

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
  // vector<bool> packs slots into shared words: concurrent writes would race.
  static_assert(!std::is_same_v<R, bool>, "parallel_map cannot return bool");
  std::vector<R> out(n);
  if (jobs == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min(jobs, n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  {
    // jthread joins on destruction, so the batch is joined at the end of
    // this block - and also if spawning a later worker throws.
    std::vector<std::jthread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            out[i] = fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

}  // namespace llamcat
