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

TEST(FastzConfig, PaperBinBoundaries) {
  // Section 3.3: bins at 512, 2048, 8192, 32768 (4x scaling).
  const FastzConfig c;
  EXPECT_EQ(c.bin_edges[0], 512u);
  EXPECT_EQ(c.bin_edges[1], 2048u);
  EXPECT_EQ(c.bin_edges[2], 8192u);
  EXPECT_EQ(c.bin_edges[3], 32768u);
  for (std::size_t k = 1; k < c.bin_edges.size(); ++k) {
    EXPECT_EQ(c.bin_edges[k], c.bin_edges[k - 1] * 4);
  }
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
