#ifndef TPA_ENGINE_THREAD_POOL_H_
#define TPA_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "la/task_runner.h"

namespace tpa {

/// Fixed-size worker pool used by QueryEngine to fan a batch of seed queries
/// out across cores.
///
/// Deliberately minimal: jobs are fire-and-forget `void()` closures drained
/// FIFO by `num_threads` workers; completion tracking (a latch, a counter)
/// is the caller's business.  The destructor drains the queue — every job
/// submitted before destruction runs to completion — and then joins.
///
/// ThreadPool also implements la::TaskRunner, so the partitioned dense
/// kernel (CsrMatrix::SpMmTransposeParallel) can fan one SpMM across the
/// same workers that serve queries.
class ThreadPool : public la::TaskRunner {
 public:
  /// Spawns `num_threads` workers.  CHECK-fails on num_threads < 1.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding jobs, then joins all workers.
  ~ThreadPool() override;

  /// Enqueues a job.  CHECK-fails after destruction has begun.
  void Submit(std::function<void()> job);

  /// Blocking fork-join: runs fn(0) .. fn(num_tasks-1) and returns once all
  /// have completed.  The calling thread claims tasks from the same shared
  /// index as the submitted helpers, so the call makes progress — and
  /// cannot deadlock — even when every pool worker is blocked inside a
  /// ParallelFor of its own (the nested case: a query job on a pool thread
  /// fanning its SpMM out over the very same pool).  Helpers that arrive
  /// after the caller drained everything are no-ops.
  void ParallelFor(size_t num_tasks,
                   const std::function<void(size_t)>& fn) override;

  int concurrency() const override { return num_threads(); }

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tpa

#endif  // TPA_ENGINE_THREAD_POOL_H_
