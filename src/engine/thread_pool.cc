#include "engine/thread_pool.h"

#include <utility>

#include "util/check.h"

namespace tpa {

ThreadPool::ThreadPool(int num_threads) {
  TPA_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TPA_CHECK(!stopping_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace tpa
