#include "src/support/thread_pool.h"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

namespace dynbcast {

/// One parallelFor's state, on the caller's stack. Indices go out from
/// count − 1 down to 0, so size-major scenario grids start big rows first.
struct ThreadPool::Call {
  const std::function<void(std::size_t)>& body;
  std::atomic<std::int64_t> left;          // indices not yet handed out
  std::vector<std::exception_ptr> errors;  // by index
  void drain() {
    for (std::int64_t next; (next = left.fetch_sub(1)) > 0;) {
      try {
        body(static_cast<std::size_t>(next - 1));
      } catch (...) {
        errors[static_cast<std::size_t>(next - 1)] = std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxPoolThreads) {
    throw std::invalid_argument("thread pool: " + std::to_string(threads) +
                                " threads exceed kMaxPoolThreads = " +
                                std::to_string(kMaxPoolThreads));
  }
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      helpers_.emplace_back([this] { helperLoop(); });
    }
  } catch (...) {  // a thread failed to start: join the ones that did
    stop();
    throw;
  }
}

void ThreadPool::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notifyAll();
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadPool::helperLoop() {
  for (std::uint64_t seen = 0;;) {
    Call* call = nullptr;
    {
      MutexLock lock(mutex_);
      wake_.wait(mutex_, [&]() REQUIRES(mutex_) {
        return stopping_ || generation_ != seen;
      });
      if (stopping_) return;
      seen = generation_;
      call = call_;
      if (call == nullptr) continue;  // woke after that call finished
      ++active_;
    }
    call->drain();
    MutexLock lock(mutex_);
    if (--active_ == 0) idle_.notifyAll();
  }
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  Call call{body, static_cast<std::int64_t>(count),
            std::vector<std::exception_ptr>(count)};
  bool dispatched = false;  // counts 0 and 1 run inline
  if (count > 1) {
    MutexLock lock(mutex_);
    if (call_ == nullptr) {  // else nested or concurrent: run inline
      call_ = &call;
      ++generation_;
      dispatched = true;
      wake_.notifyAll();
    }
  }
  call.drain();
  if (dispatched) {
    MutexLock lock(mutex_);
    idle_.wait(mutex_, [this]() REQUIRES(mutex_) { return active_ == 0; });
    call_ = nullptr;
  }
  for (const std::exception_ptr& error : call.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace dynbcast
