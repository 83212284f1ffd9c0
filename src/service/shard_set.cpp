#include "service/shard_set.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fastz::service {

ShardSet::ShardSet(std::size_t count, const gpusim::DeviceSpec& spec) : spec_(spec) {
  if (count == 0) throw std::invalid_argument("ShardSet: count must be >= 1");
  busy_s_.resize(count, 0.0);
}

std::size_t ShardSet::acquire() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(
      std::min_element(busy_s_.begin(), busy_s_.end()) - busy_s_.begin());
}

void ShardSet::charge(std::size_t shard, double modeled_s) {
  std::lock_guard lock(mutex_);
  busy_s_.at(shard) += modeled_s;
}

double ShardSet::busy_s(std::size_t shard) const {
  std::lock_guard lock(mutex_);
  return busy_s_.at(shard);
}

double ShardSet::total_busy_s() const {
  std::lock_guard lock(mutex_);
  return std::accumulate(busy_s_.begin(), busy_s_.end(), 0.0);
}

double ShardSet::imbalance() const {
  std::lock_guard lock(mutex_);
  const double total = std::accumulate(busy_s_.begin(), busy_s_.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const double mean = total / static_cast<double>(busy_s_.size());
  return *std::max_element(busy_s_.begin(), busy_s_.end()) / mean;
}

}  // namespace fastz::service
