#include "service/shard_set.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace fastz::service {
namespace {

TEST(ShardSet, RejectsEmptySet) {
  EXPECT_THROW(ShardSet(0, gpusim::titan_x_pascal()), std::invalid_argument);
}

TEST(ShardSet, AcquirePicksLeastBusyWithStableTies) {
  ShardSet shards(3, gpusim::titan_x_pascal());
  EXPECT_EQ(shards.size(), 3u);
  // All idle: ties break to the lowest index, so dispatch is deterministic.
  EXPECT_EQ(shards.acquire(), 0u);
  shards.charge(0, 2.0);
  EXPECT_EQ(shards.acquire(), 1u);
  shards.charge(1, 1.0);
  EXPECT_EQ(shards.acquire(), 2u);
  shards.charge(2, 3.0);
  // Busy: 0 -> 2.0, 1 -> 1.0, 2 -> 3.0.
  EXPECT_EQ(shards.acquire(), 1u);
  EXPECT_DOUBLE_EQ(shards.busy_s(0), 2.0);
  EXPECT_DOUBLE_EQ(shards.total_busy_s(), 6.0);
}

TEST(ShardSet, ImbalanceIsMaxOverMean) {
  ShardSet shards(2, gpusim::titan_x_pascal());
  EXPECT_DOUBLE_EQ(shards.imbalance(), 0.0);  // idle fleet
  shards.charge(0, 1.0);
  shards.charge(1, 3.0);
  EXPECT_DOUBLE_EQ(shards.imbalance(), 1.5);  // max 3 / mean 2
}

TEST(ShardSet, ChargeOutOfRangeThrows) {
  ShardSet shards(2, gpusim::titan_x_pascal());
  EXPECT_THROW(shards.charge(2, 1.0), std::out_of_range);
  EXPECT_THROW(shards.busy_s(5), std::out_of_range);
}

TEST(ShardSet, ConcurrentChargesAllLand) {
  ShardSet shards(4, gpusim::titan_x_pascal());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shards, t] {
      for (int i = 0; i < 1000; ++i) shards.charge(t, 0.001);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_NEAR(shards.total_busy_s(), 4.0, 1e-9);
  EXPECT_NEAR(shards.imbalance(), 1.0, 1e-9);
}

}  // namespace
}  // namespace fastz::service
