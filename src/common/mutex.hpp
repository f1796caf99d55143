#pragma once

#include <mutex>

#include "common/thread_annotations.hpp"

namespace ecotune {

/// std::mutex behind a Clang-analyzable capability. libstdc++'s std::mutex
/// carries no thread-safety attributes, so ECOTUNE_GUARDED_BY(some_std_mutex)
/// would be rejected by the analysis; this wrapper is the lock type every
/// annotated class in the tree uses. Zero overhead: the two members
/// forward directly.
class ECOTUNE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ECOTUNE_ACQUIRE() { m_.lock(); }
  void unlock() ECOTUNE_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII guard over Mutex, tracked by the analysis as a scoped capability.
/// Relockable: lock()/unlock() let a holder drop the mutex mid-scope (the
/// ThreadPool worker loop releases it around each batch drain) and meet
/// BasicLockable, so std::condition_variable_any::wait(MutexLock&) works.
class ECOTUNE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ECOTUNE_ACQUIRE(mutex)
      : mutex_(mutex), held_(true) {
    mutex_.lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() ECOTUNE_RELEASE() {
    if (held_) mutex_.unlock();
  }

  /// Re-acquires after an explicit unlock().
  void lock() ECOTUNE_ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }
  /// Releases early; the destructor then does nothing.
  void unlock() ECOTUNE_RELEASE() {
    mutex_.unlock();
    held_ = false;
  }

 private:
  Mutex& mutex_;
  bool held_;
};

}  // namespace ecotune
