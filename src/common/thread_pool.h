#ifndef CARDBENCH_COMMON_THREAD_POOL_H_
#define CARDBENCH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cardbench {

/// Fixed-size worker-thread pool. The architectural seam for every
/// concurrent path in the repo: the estimation serving layer
/// (`src/service`) runs its request-drain loops on one, and the harness's
/// `--threads=N` fan-out submits one task per workload query.
///
/// Semantics:
///  - Submit enqueues a task and returns a future that resolves when the
///    task finishes. Exceptions thrown by the task are captured into the
///    future (std::future::get rethrows) rather than crossing thread
///    boundaries unhandled — workers never die from a throwing task.
///  - The internal task queue is unbounded; admission control belongs to
///    the caller (the service layer bounds its own request queue and
///    rejects with a Status instead of blocking — see
///    service/request_queue.h).
///  - Shutdown drains already-queued tasks, then joins the workers.
///    Submit after Shutdown returns an already-resolved future carrying a
///    std::runtime_error. The destructor calls Shutdown.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the returned future resolves on completion and
  /// rethrows anything the task threw.
  std::future<void> Submit(std::function<void()> task);

  /// Drains queued tasks and joins all workers. Idempotent; safe to call
  /// concurrently with Submit (late submissions are rejected, see above).
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [0, count) across `pool`, blocking until all
/// iterations finish. The first exception any iteration threw is rethrown
/// after every iteration has completed (matching serial fail-fast semantics
/// closely enough for CHECK-style fatal paths, which abort regardless).
void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_THREAD_POOL_H_
