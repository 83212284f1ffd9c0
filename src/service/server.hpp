// Long-lived alignment server: bounded admission queue, micro-batcher,
// content-addressed result cache, and sharded virtual-GPU workers.
//
// Request flow (docs/SERVICE.md has the full architecture):
//
//   submit() ──bounded queue──> batcher thread ──batch──> shard worker
//                                                          │
//                        cache hit ── ResultCache ─────────┤
//                        coalesce duplicates               │
//                        run_functional_batch (ONE pass)   │
//                        derive() on the shard's vGPU ─────┘
//
// - Admission control: submit() throws QueueFullError once the pending
//   queue holds queue_limit requests (the caller sheds; nothing blocks).
// - Micro-batching: the batcher coalesces up to batch_max requests that
//   arrive within batch_window_s of the first waiting request into ONE
//   run_functional_batch call — one seed-index build per distinct target,
//   one worker sweep, one dispatch round-trip. enable_batching=false
//   dispatches batches of exactly one (the A/B baseline the bench
//   compares against); results are bit-identical either way.
// - Caching: answers repeat keys (request_key) from the ResultCache
//   without touching the pipeline; per-batch duplicates run once.
// - Sharding: shards worker threads each own one virtual GPU; batches go
//   to the least-modeled-busy shard (service::ShardSet), which is charged
//   the derived device seconds of the work it serves.
//
// Thread-safety: every public method may be called from any thread. The
// returned futures become ready from worker threads; a request whose
// processing throws carries the exception through its future. shutdown()
// (and the destructor) stop admission, drain everything already accepted,
// and join all threads. pause()/resume() freeze the batcher so tests can
// stage a known queue and then observe exactly one coalesced dispatch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "align/lastz_pipeline.hpp"
#include "fastz/config.hpp"
#include "gpusim/device_spec.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/shard_set.hpp"
#include "telemetry/trace_context.hpp"

namespace fastz::service {

struct ServerConfig {
  std::size_t queue_limit = 64;   // pending requests before sheds begin
  std::size_t batch_max = 8;      // per-dispatch coalescing ceiling
  double batch_window_s = 2e-4;   // linger after the first waiting request
  bool enable_batching = true;    // false = dispatch one request at a time
  std::size_t shards = 1;         // worker threads, one virtual GPU each
  std::size_t threads_per_shard = 1;  // functional-pass workers per dispatch
  bool enable_cache = true;
  std::size_t cache_max_entries = 1024;
  std::size_t cache_max_bytes = std::size_t{64} << 20;
  // Latency objective (SLO) per request, 0 = none. Breaches are counted,
  // recorded in the flight recorder, and (with postmortem_path set) dump a
  // post-mortem the first time.
  double latency_objective_s = 0.0;
  // Prefix for flight-recorder post-mortem dumps. When non-empty the
  // server writes "<prefix>.<cause>.json" on the first queue-full shed,
  // the first latency-objective breach, and at shutdown drain.
  std::string postmortem_path;
  PipelineOptions options;        // server-wide pipeline knobs (not keyed)
  FastzConfig config = FastzConfig::full();       // derived configuration
  gpusim::DeviceSpec device = gpusim::titan_x_pascal();  // per-shard vGPU
};

// Monotonic service counters (snapshot; see also service.* registry
// metrics in docs/TELEMETRY.md).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;          // admission rejections, every cause
  std::uint64_t shed_queue_full = 0;  // bounded queue at capacity
  std::uint64_t shed_shutdown = 0;    // submitted after shutdown() began
  std::uint64_t slo_breaches = 0;  // completions over latency_objective_s
  std::uint64_t completed = 0;     // futures fulfilled (errors included)
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;     // in-batch duplicates served by one run
  std::uint64_t batches = 0;       // run_functional_batch dispatches
  std::uint64_t pipeline_items = 0;  // items actually run (misses, deduped)
  std::size_t max_queue_depth = 0;
};

class AlignmentServer {
 public:
  // `start_paused = true` keeps the batcher from dispatching until
  // resume() — deterministic tests stage a queue first.
  explicit AlignmentServer(ServerConfig config, bool start_paused = false);
  ~AlignmentServer();

  AlignmentServer(const AlignmentServer&) = delete;
  AlignmentServer& operator=(const AlignmentServer&) = delete;

  // Enqueues the request. Throws QueueFullError when the pending queue is
  // at queue_limit, ShutdownError after shutdown() began. The future
  // resolves from a worker thread.
  std::future<AlignResult> submit(AlignRequest request);

  void pause();
  void resume();

  // Stops admission, drains every accepted request, joins all threads.
  // Idempotent; the destructor calls it.
  void shutdown();

  std::size_t queue_depth() const;
  ServerStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  const ShardSet& shard_set() const { return shards_; }
  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    AlignRequest request;
    Digest128 key;
    std::promise<AlignResult> promise;
    telemetry::TraceContext trace;  // request id minted at submit; batch id
                                    // stamped when the batcher seals a batch
    double submitted_us = 0.0;      // TraceRecorder clock, for retro spans
                                    // and latency accounting
  };
  using Batch = std::vector<Pending>;

  void batcher_loop();
  void worker_loop(std::size_t shard);
  void process_batch(std::size_t shard, Batch batch);
  // First-occurrence-per-cause flight-recorder dump (no-op without
  // postmortem_path).
  void maybe_dump_postmortem(const char* cause, std::atomic<bool>& once);

  ServerConfig config_;
  ResultCache cache_;
  ShardSet shards_;

  mutable std::mutex mutex_;               // pending queue + batcher state
  std::condition_variable cv_batcher_;
  std::deque<Pending> pending_;
  bool paused_ = false;
  bool stopping_ = false;

  struct ShardQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Batch> batches;
    bool stopping = false;
  };
  std::vector<std::unique_ptr<ShardQueue>> shard_queues_;

  // Monotonic counters; workers bump them without taking mutex_.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
  std::atomic<std::uint64_t> slo_breaches_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> pipeline_items_{0};
  std::atomic<std::size_t> max_queue_depth_{0};

  std::atomic<bool> postmortem_queue_full_{false};
  std::atomic<bool> postmortem_slo_{false};

  std::thread batcher_;
  std::vector<std::thread> workers_;
  std::mutex join_mutex_;  // serializes concurrent shutdown() callers
  bool joined_ = false;    // guarded by join_mutex_
};

}  // namespace fastz::service
