#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/trace.hpp"

namespace fastz {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("FASTZ_THREADS"); env != nullptr && *env != '\0') {
    // Strict parse: the whole string must be a positive decimal integer.
    // strtoull accepts leading whitespace/signs and clamps overflow, so
    // check those explicitly.
    errno = 0;
    char* end = nullptr;
    const bool leading_ok = env[0] >= '0' && env[0] <= '9';
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (!leading_ok || end == env || *end != '\0' || errno == ERANGE || parsed == 0 ||
        parsed > std::numeric_limits<std::size_t>::max()) {
      throw std::invalid_argument(
          "FASTZ_THREADS must be a positive integer, got '" + std::string(env) +
          "' (unset it or pass --threads to override)");
    }
    return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  // Every worker must observe stopping_: notify_one could wake a single
  // worker and leave the rest parked forever.
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, size());
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per;
    const std::size_t end = std::min(n, begin + per);
    if (begin >= end) break;
    futures.push_back(submit([begin, end, &fn] {
      // One span per worker chunk: the per-tid lanes of the trace make
      // multicore load imbalance directly visible.
      telemetry::TraceSpan span("pool.chunk", "pool");
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  join_all(futures);
}

void ThreadPool::parallel_for_dynamic(std::size_t n, std::size_t chunk,
                                      const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);
  const std::size_t workers = std::min(size(), (n + chunk - 1) / chunk);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([n, chunk, &cursor, &fn] {
      telemetry::TraceSpan span("pool.worker", "pool");
      for (;;) {
        const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        const std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }
    }));
  }
  join_all(futures);
}

void ThreadPool::join_all(std::vector<std::future<void>>& futures) {
  // Wait for *every* worker before rethrowing: bailing on the first failure
  // would destroy `fn` (and any state it captures) while other workers still
  // run, and would leave the barrier half-joined.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fastz
