#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "gpusim/device_spec.hpp"

namespace fastz::service {

// A fleet of identical virtual GPUs with per-shard modeled-busy-time
// accounting — the dispatch substrate the alignment service's workers run
// on (docs/SERVICE.md). `acquire()` picks the least-busy shard (lowest
// index on ties, so dispatch order is deterministic for equal loads) and
// `charge()` books the modeled seconds a batch consumed on it. All
// methods are thread-safe; the busy times are modeled device time, not
// wallclock, so accounting is deterministic under any thread schedule
// once per-shard charge sequences are fixed.
class ShardSet {
 public:
  // `count` must be >= 1 (throws std::invalid_argument otherwise).
  ShardSet(std::size_t count, const gpusim::DeviceSpec& spec);

  std::size_t size() const noexcept { return busy_s_.size(); }
  const gpusim::DeviceSpec& spec() const noexcept { return spec_; }

  // Least-modeled-busy shard; ties break to the lowest index.
  std::size_t acquire() const;
  // Books `modeled_s` seconds of device time on `shard`.
  void charge(std::size_t shard, double modeled_s);

  double busy_s(std::size_t shard) const;
  double total_busy_s() const;
  // max(busy) / mean(busy) — 1.0 is perfectly balanced; 0 when idle.
  double imbalance() const;

 private:
  gpusim::DeviceSpec spec_;
  mutable std::mutex mutex_;
  std::vector<double> busy_s_;
};

}  // namespace fastz::service
