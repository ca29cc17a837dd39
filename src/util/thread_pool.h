// Fixed-size futures-based thread pool for the parallel bound engine.
//
// Deliberately simple — one shared queue, no work stealing: tasks here are
// coarse (whole LP solves, simulation runs), so queue contention is
// negligible. Two rules keep it deadlock-free:
//
//  1. Tasks submitted to the pool must never block on other pool tasks.
//  2. parallel_for() degrades to serial execution when invoked from inside
//     a pool worker, so accidental nesting (e.g. a parallel sweep batch
//     inside a pool task) serializes instead of deadlocking.
//
// Work is partitioned into fixed blocks independent of the worker count, so
// any floating-point reduction an individual task performs is identical for
// every `threads` value — the parallelism knob never changes numerics.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wanplace::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = default_parallelism();
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  std::size_t thread_count() const { return workers_.size(); }

  /// hardware_concurrency with a sane floor of 1.
  static std::size_t default_parallelism() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const { return current_pool() == this; }

  /// Schedule `fn` and get a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<decltype(fn())> {
    using Result = decltype(fn());
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Run fn(block) for block in [0, blocks); the caller executes block 0
  /// inline and waits for the rest. Serializes when already on a worker
  /// thread (rule 2 above). `fn` must not throw.
  template <typename Fn>
  void parallel_for(std::size_t blocks, Fn&& fn) {
    if (blocks == 0) return;
    if (blocks == 1 || workers_.empty() || on_worker_thread()) {
      for (std::size_t b = 0; b < blocks; ++b) fn(b);
      return;
    }
    std::vector<std::future<void>> pending;
    pending.reserve(blocks - 1);
    for (std::size_t b = 1; b < blocks; ++b)
      pending.push_back(submit([&fn, b] { fn(b); }));
    fn(0);
    for (auto& future : pending) future.get();
  }

 private:
  static const ThreadPool*& current_pool() {
    thread_local const ThreadPool* pool = nullptr;
    return pool;
  }

  void worker_loop() {
    current_pool() = this;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, queue drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace wanplace::util
