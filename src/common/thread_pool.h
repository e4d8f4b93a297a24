#ifndef ATUNE_COMMON_THREAD_POOL_H_
#define ATUNE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace atune {

/// Fixed-size thread pool behind the parallel experiment engine.
///
/// A small, deliberately simple pool: `num_threads` workers pull tasks from
/// one bounded FIFO queue. Submit() blocks when the queue is full
/// (backpressure instead of unbounded memory growth) and returns a
/// std::future for the task's result. Shutdown() — also run by the
/// destructor — stops intake, drains every queued task, and joins the
/// workers, so no submitted work is ever dropped.
///
/// Tasks must not throw: the framework's error handling is Status-based
/// (see DESIGN.md §5), so tasks communicate failure through their return
/// value (e.g. Result<T>), never exceptions.
///
/// Thread-safety: Submit() may be called concurrently from any thread.
/// Shutdown() must be called at most once, and not concurrently with
/// Submit().
class ThreadPool {
 public:
  /// Starts `num_threads` workers (minimum 1). `queue_capacity` bounds the
  /// number of not-yet-started tasks; 0 picks 4 * num_threads.
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues `fn` and returns a future for its result. Blocks while the
  /// queue is at capacity. Calling Submit() after Shutdown() is a
  /// programming error; the task is dropped and the returned future is
  /// invalid.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<decltype(fn())> {
    using ReturnType = decltype(fn());
    auto task = std::make_shared<std::packaged_task<ReturnType()>>(
        std::move(fn));
    std::future<ReturnType> future = task->get_future();
    if (!Enqueue([task]() { (*task)(); })) {
      return std::future<ReturnType>();
    }
    return future;
  }

  /// Stops intake, runs every already-queued task, and joins the workers.
  /// Idempotent via the destructor only; see class comment.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  /// Returns false if the pool is shut down (task rejected).
  bool Enqueue(std::function<void()> task);
  void WorkerLoop();

  const size_t queue_capacity_;
  std::mutex mu_;
  std::condition_variable task_available_;   // signaled on enqueue/shutdown
  std::condition_variable space_available_;  // signaled on dequeue
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool shutdown_ = false;                    // guarded by mu_
  std::vector<std::thread> threads_;
};

/// Pool size that, together with the calling thread, occupies every core:
/// hardware_concurrency() - 1, and at least one.
size_t HelperThreadCount();

}  // namespace atune

#endif  // ATUNE_COMMON_THREAD_POOL_H_
