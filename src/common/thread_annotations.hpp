#pragma once

// Portable spellings of Clang's thread-safety attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under Clang the
// macros expand to the attributes and `-Wthread-safety` turns lock misuse
// into a compile error (the CI lane builds with -Werror=thread-safety);
// under every other compiler they expand to nothing, so the annotated tree
// stays portable.
//
// Policy (see README "Correctness tooling"):
//  - Every mutex-guarded member is annotated ECOTUNE_GUARDED_BY(mutex_),
//    and every function that assumes the lock is held is annotated
//    ECOTUNE_REQUIRES(mutex_). The `lock-discipline` lint rule enforces
//    that no mutex outside src/common/ goes un-annotated.
//  - The annotations attach to ecotune::Mutex / ecotune::MutexLock
//    (common/mutex.hpp), not raw std::mutex: libstdc++'s std::mutex
//    carries no capability attribute, so the analysis cannot track it.
//  - A function whose locking pattern the analysis cannot express (e.g.
//    lock handoff across an opaque boundary) is waived explicitly with
//    ECOTUNE_NO_THREAD_SAFETY_ANALYSIS plus a comment saying why; blanket
//    waivers are not acceptable.

#if defined(__clang__)
#define ECOTUNE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ECOTUNE_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" names the capability
/// kind in diagnostics).
#define ECOTUNE_CAPABILITY(x) ECOTUNE_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define ECOTUNE_SCOPED_CAPABILITY ECOTUNE_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define ECOTUNE_GUARDED_BY(x) ECOTUNE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define ECOTUNE_PT_GUARDED_BY(x) ECOTUNE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The caller must hold the capability when calling this function (held
/// on entry and on exit).
#define ECOTUNE_REQUIRES(...) \
  ECOTUNE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// This function acquires the capability (not held on entry, held on
/// exit).
#define ECOTUNE_ACQUIRE(...) \
  ECOTUNE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// This function releases the capability (held on entry, not on exit).
#define ECOTUNE_RELEASE(...) \
  ECOTUNE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (the function acquires it
/// itself; calling with it held would self-deadlock a non-recursive
/// mutex).
#define ECOTUNE_EXCLUDES(...) \
  ECOTUNE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the pattern is inexpressible.
#define ECOTUNE_NO_THREAD_SAFETY_ANALYSIS \
  ECOTUNE_THREAD_ANNOTATION_(no_thread_safety_analysis)
