// Fixed-size worker pool used by the multicore LASTZ implementation and
// FastZ's functional pass.
//
// The paper's multicore baseline partitions the seed list across processes;
// parallel_for gives threads the same coarse-grained inter-seed partitioning
// (Section 3.4 of the paper: "Our implementation partitions the set of seeds
// where each partition runs in a sequential process"). parallel_for_dynamic
// hands out seeds from a shared cursor instead, for passes whose wallclock
// should not hinge on one worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fastz {

// Resolves a thread-count request shared by every `--threads` knob:
// nonzero requests pass through unchanged; 0 ("auto") consults the
// FASTZ_THREADS environment variable and falls back to
// hardware_concurrency (at least 1). FASTZ_THREADS must be a positive
// decimal integer; anything else (non-numeric, negative, zero, trailing
// garbage, overflow) throws std::invalid_argument naming the bad value —
// a typo in a CI matrix or service unit file must fail loudly, not
// silently run at a different parallelism. An empty/unset variable means
// "no preference".
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue a task; the returned future rethrows any task exception.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& f) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  // Work is divided into contiguous chunks, one per worker, mirroring the
  // static seed-partitioning of the multicore LASTZ baseline.
  //
  // An exception thrown by any fn(i) is rethrown here (the first one, in
  // chunk order) — but only after every chunk has finished, so the barrier
  // never abandons tasks that still reference `fn`.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Run fn(i) for i in [0, n) across the pool and wait for completion, with
  // every worker claiming the next `chunk` indices from a shared cursor until
  // none are left. A worker slowed by the host, or holding a costly item,
  // takes fewer items instead of holding up the barrier, so the wallclock
  // follows the pool's total speed rather than its slowest worker's.
  //
  // An exception thrown by fn(i) ends that worker's loop and is rethrown
  // here (the first one, in worker order) after every worker has finished.
  void parallel_for_dynamic(std::size_t n, std::size_t chunk,
                            const std::function<void(std::size_t)>& fn);

  // Stops accepting work, drains the queue, and joins the workers. Safe to
  // call more than once; subsequent submit() calls throw. The destructor
  // calls this implicitly.
  void shutdown();

 private:
  void worker_loop();
  // Waits for every future, then rethrows the first exception among them.
  static void join_all(std::vector<std::future<void>>& futures);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace fastz
