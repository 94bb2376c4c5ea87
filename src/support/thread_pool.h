// Thread pool with one dispatch slot, under ExperimentEngine::map: helpers
// sleep between calls, and parallelFor wakes them and draws indices with
// them. A call made while another is in flight runs inline on its caller.
// Task order is unspecified; SeedSequence derives seeds from positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/support/mutex.h"

namespace dynbcast {

/// Larger pools (a mistyped --jobs) are rejected before any thread starts.
inline constexpr std::size_t kMaxPoolThreads = 1024;

class ThreadPool {
 public:
  /// Starts `threads` helpers (0: hardware_concurrency, at least 1); throws
  /// std::invalid_argument above kMaxPoolThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() { stop(); }
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return helpers_.size(); }

  /// Runs body(0) … body(count-1) on the helpers and the caller; returns
  /// when all have finished, rethrowing the LOWEST failing index's error.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

 private:
  struct Call;
  void helperLoop();
  void stop();  // wakes and joins the helpers

  Mutex mutex_;
  CondVar wake_;  // helpers: generation_ moved, or stopping_
  CondVar idle_;  // caller: active_ reached 0
  Call* call_ GUARDED_BY(mutex_) = nullptr;          // the call in flight
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;  // calls published
  std::size_t active_ GUARDED_BY(mutex_) = 0;        // helpers in call_
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> helpers_;  // last: they use the members above
};

}  // namespace dynbcast
