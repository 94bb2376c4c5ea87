// Annotated mutex primitives: std::mutex/std::condition_variable with
// Clang thread-safety capabilities attached.
//
// libstdc++'s std::mutex has no capability attributes, so
// `clang -Wthread-safety` cannot track what std::lock_guard protects.
// These thin wrappers re-export exactly the subset the codebase uses —
// lock/unlock, a scoped lock, and condition-variable waits — with the
// attributes the analysis needs. Zero overhead: everything inlines to
// the underlying std calls.
#pragma once

#include <condition_variable>
#include <mutex>

#include "src/support/thread_annotations.h"

namespace dynbcast {

/// std::mutex as a Clang capability. Prefer MutexLock over manual
/// lock()/unlock() pairs.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }

  /// The wrapped std::mutex, for CondVar's adopt-lock bridge only.
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Scoped lock over Mutex — std::lock_guard with the SCOPED_CAPABILITY
/// attribute so the analysis knows the critical section's extent.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable over Mutex. Waits REQUIRE the mutex held (use
/// inside a MutexLock scope); the handoff to std::condition_variable
/// uses adopt/release so the capability stays logically held across the
/// wait, matching what actually happens at runtime.
class CondVar {
 public:
  void notifyAll() { cv_.notify_all(); }

  template <typename Pred>
  void wait(Mutex& m, Pred pred) REQUIRES(m) {
    std::unique_lock<std::mutex> bridge(m.native(), std::adopt_lock);
    cv_.wait(bridge, std::move(pred));
    bridge.release();  // the enclosing MutexLock still owns the mutex
  }

 private:
  std::condition_variable cv_;
};

}  // namespace dynbcast
