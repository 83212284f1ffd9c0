#include "fastz/config.hpp"

#include <gtest/gtest.h>

namespace fastz {
namespace {

TEST(FastzConfig, FullEnablesEverything) {
  const FastzConfig c = FastzConfig::full();
  EXPECT_TRUE(c.cyclic_buffers);
  EXPECT_TRUE(c.eager_traceback);
  EXPECT_TRUE(c.executor_trimming);
  EXPECT_TRUE(c.staged_traceback_writes);
  EXPECT_EQ(c.streams, 32u);
  EXPECT_EQ(c.eager_tile, 16u);
}

TEST(FastzConfig, LoadBalanceOnlyDisablesOptimizations) {
  const FastzConfig c = FastzConfig::load_balance_only();
  EXPECT_FALSE(c.cyclic_buffers);
  EXPECT_FALSE(c.eager_traceback);
  EXPECT_FALSE(c.executor_trimming);
  EXPECT_FALSE(c.staged_traceback_writes);
  EXPECT_EQ(c.streams, 32u);  // streams stay on for the base configuration
}

TEST(FastzConfig, ProgressiveBuildersCompose) {
  FastzConfig c = FastzConfig::load_balance_only();
  c.with_cyclic_buffers();
  EXPECT_TRUE(c.cyclic_buffers);
  EXPECT_TRUE(c.staged_traceback_writes);  // register scheme implies staging
  EXPECT_FALSE(c.eager_traceback);
  c.with_eager_traceback();
  EXPECT_TRUE(c.eager_traceback);
  EXPECT_FALSE(c.executor_trimming);
  c.with_executor_trimming();
  EXPECT_TRUE(c.executor_trimming);
  c.with_streams(1);
  EXPECT_EQ(c.streams, 1u);
}

}  // namespace
}  // namespace fastz
