#include "common/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cardbench {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      // Resolve the future with an error instead of deadlocking the caller
      // on a task no worker will ever run.
      std::packaged_task<void()> reject(
          [] { throw std::runtime_error("ThreadPool is shut down"); });
      std::future<void> rejected = reject.get_future();
      reject();
      return rejected;
    }
    queue_.push_back(std::move(packaged));
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(pool.Submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cardbench
