// Clang thread-safety-analysis attribute macros (no-ops everywhere else).
//
// Clang's -Wthread-safety turns locking discipline into a compile-time
// contract: data members carry GUARDED_BY(mu), functions declare
// REQUIRES/ACQUIRE/RELEASE, and the analysis rejects any access path that
// cannot prove the right capability is held. The repo's parallel surface
// (ThreadPool and TaskGroup, under parallel_map) is annotated with these
// macros and CI builds it with clang -Wthread-safety -Werror; under gcc the
// macros expand to nothing and the code is unchanged.
//
// The macro set follows the clang documentation's canonical spelling so the
// names grep cleanly against upstream docs. std::mutex itself carries no
// annotations in libstdc++, so annotated code uses the llamcat::Mutex /
// MutexLock / CondVar wrappers from common/sync.hpp - see that header.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define LLAMCAT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LLAMCAT_THREAD_ANNOTATION(x)  // no-op
#endif

/// Marks a class as a lockable capability (e.g. a mutex wrapper).
#define CAPABILITY(x) LLAMCAT_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability for its lifetime.
#define SCOPED_CAPABILITY LLAMCAT_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define GUARDED_BY(x) LLAMCAT_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define PT_GUARDED_BY(x) LLAMCAT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the capability(ies) when calling.
#define REQUIRES(...) \
  LLAMCAT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability(ies) when calling.
#define EXCLUDES(...) LLAMCAT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  LLAMCAT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability the caller held.
#define RELEASE(...) \
  LLAMCAT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) LLAMCAT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis inside one function. Used only by
/// the sync.hpp wrappers themselves (adopt/release tricks the analysis
/// cannot follow); annotated user code should never need it.
#define NO_THREAD_SAFETY_ANALYSIS \
  LLAMCAT_THREAD_ANNOTATION(no_thread_safety_analysis)
