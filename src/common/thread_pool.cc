#include "common/thread_pool.h"

#include <algorithm>

namespace atune {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : queue_capacity_(queue_capacity > 0
                          ? queue_capacity
                          : 4 * std::max<size_t>(num_threads, 1)) {
  size_t n = std::max<size_t>(num_threads, 1);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_available_.wait(lock, [this]() {
      return shutdown_ || queue_.size() < queue_capacity_;
    });
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  task_available_.notify_all();
  space_available_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    space_available_.notify_one();
    task();
  }
}

size_t HelperThreadCount() {
  unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

}  // namespace atune
