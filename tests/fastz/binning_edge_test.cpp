// Bin-boundary edge cases (satellite of the differential-harness PR):
// alignment boxes exactly at the 512/2048/8192/32768 edges, zero-length and
// single-seed inputs, and empty bins reaching the executor's kernel
// builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fastz/binning.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "testing/test_sequences.hpp"

namespace fastz {
namespace {

SeedInspection inspection_with_box(std::uint32_t left_i, std::uint32_t right_i) {
  SeedInspection ins;
  ins.left.best = BestCell{100, left_i, left_i};
  ins.right.best = BestCell{100, right_i, right_i};
  return ins;
}

TEST(BinningEdges, ExactEdgeLandsInItsBin) {
  // "<= edge" is the bin rule: the edge itself belongs to the bin, edge+1
  // overflows into the next.
  for (std::size_t k = 0; k < kBinEdges.size(); ++k) {
    EXPECT_EQ(bin_index(kBinEdges[k]), k) << "edge " << kBinEdges[k];
    EXPECT_EQ(bin_index(kBinEdges[k] - 1), k);
    EXPECT_EQ(bin_index(kBinEdges[k] + 1), k + 1);
  }
  EXPECT_EQ(bin_index(0), 0u);
  EXPECT_EQ(bin_index(~0ull), kBinEdges.size());  // overflow bin
}

TEST(BinningEdges, CensusClassifiesBoundaryBoxes) {
  const FastzConfig config;
  BinCensus census;
  // Boxes split across left/right extents: 512 = 256 + 256 etc.
  census.add(inspection_with_box(256, 256), config.eager_tile);   // 512
  census.add(inspection_with_box(256, 257), config.eager_tile);   // 513
  census.add(inspection_with_box(1024, 1024), config.eager_tile); // 2048
  census.add(inspection_with_box(4096, 4096), config.eager_tile); // 8192
  census.add(inspection_with_box(16384, 16384), config.eager_tile); // 32768
  census.add(inspection_with_box(16384, 16385), config.eager_tile); // 32769
  EXPECT_EQ(census.total, 6u);
  EXPECT_EQ(census.bins[0], 1u);
  EXPECT_EQ(census.bins[1], 2u);  // 513 and 2048
  EXPECT_EQ(census.bins[2], 1u);
  EXPECT_EQ(census.bins[3], 1u);
  EXPECT_EQ(census.overflow, 1u);
}

TEST(BinningEdges, EagerTileBoundaryIsInclusive) {
  const FastzConfig config;  // tile = 16
  EXPECT_TRUE(eager_eligible(inspection_with_box(16, 16), config.eager_tile));
  SeedInspection over = inspection_with_box(16, 16);
  over.left.best.i = 17;
  EXPECT_FALSE(eager_eligible(over, config.eager_tile));
  // A 17+16 box is NOT eager even though each side is near the tile — the
  // rule is per-side, not per-box.
  EXPECT_TRUE(eager_eligible(inspection_with_box(0, 16), config.eager_tile));
}

TEST(BinningEdges, ZeroLengthInputsProduceAnEmptyStudy) {
  const Sequence empty_a("a", {});
  const Sequence empty_b("b", {});
  const ScoreParams p = lastz_default_params();
  const FastzStudy study(empty_a, empty_b, p);
  EXPECT_EQ(study.seeds(), 0u);
  EXPECT_TRUE(study.alignments().empty());

  // Zero seeds reaching derive(): every bin is empty, no kernels launch,
  // modeled times stay finite.
  const FastzRun run = study.derive(FastzConfig::full(), gpusim::rtx3080_ampere());
  EXPECT_EQ(run.executor_kernels, 0u);
  EXPECT_EQ(run.executor_tasks, 0u);
  EXPECT_EQ(run.census.total, 0u);
  EXPECT_GE(run.modeled.total_s(), 0.0);
  EXPECT_TRUE(std::isfinite(run.modeled.total_s()));
}

TEST(BinningEdges, SingleSeedInputFlowsThroughThePipeline) {
  // Exactly one 19 bp identical window: one seed, one (eager) alignment.
  const Sequence a = testing::random_dna(19, 0xfeed);
  const Sequence b("b", {a.codes().begin(), a.codes().end()});
  ScoreParams p = lastz_default_params();
  p.gapped_threshold = 0;
  const FastzStudy study(a, b, p);
  ASSERT_EQ(study.seeds(), 1u);
  ASSERT_EQ(study.alignments().size(), 1u);
  const FastzRun run = study.derive(FastzConfig::full(), gpusim::rtx3080_ampere());
  EXPECT_EQ(run.census.total, 1u);
  EXPECT_EQ(run.census.eager, 1u);
  EXPECT_EQ(run.eager_handled, 1u);
  EXPECT_EQ(run.executor_kernels, 0u);  // the only seed was eager: all bins empty
}

// Two unrelated sequences sharing a few short exact islands: homologies are
// island-sized, so alignment boxes stay far below the long bins.
std::pair<Sequence, Sequence> island_pair(std::size_t length, std::size_t island,
                                          std::uint64_t seed) {
  const Sequence a = testing::random_dna(length, seed, "a");
  const Sequence b_random = testing::random_dna(length, seed ^ 0x5eedull, "b");
  std::vector<BaseCode> b(b_random.codes().begin(), b_random.codes().end());
  const std::size_t stride = length / 3;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t a_off = k * stride + stride / 4;
    const std::size_t b_off = k * stride + stride / 2;
    std::copy_n(a.codes().begin() + static_cast<std::ptrdiff_t>(a_off), island,
                b.begin() + static_cast<std::ptrdiff_t>(b_off));
  }
  return {a, Sequence("b", std::move(b))};
}

TEST(BinningEdges, EmptyBinsReachTheExecutorWithoutKernels) {
  // Island-sized homologies only: bins 2/3/overflow must stay empty. The
  // dispatcher packs cross-bin, so its invariant is a launch count bounded
  // by the chunk structure: at most one dense and one Hirschberg launch per
  // inspector launch at this scale (nothing splits on a 10 GB budget).
  auto [a, b] = island_pair(6000, 250, 0x10ed);
  ScoreParams p = lastz_default_params();
  p.ydrop = 1500;
  const FastzStudy study(a, b, p);
  ASSERT_GT(study.seeds(), 0u);
  const FastzRun run = study.derive(FastzConfig::full(), gpusim::rtx3080_ampere());
  EXPECT_EQ(run.census.bins[2], 0u);
  EXPECT_EQ(run.census.bins[3], 0u);
  EXPECT_EQ(run.census.overflow, 0u);
  // Eager seeds never create executor tasks.
  EXPECT_EQ(run.census.total, run.eager_handled + run.executor_tasks);
  EXPECT_LE(run.inspector_launches, 2u);
  EXPECT_LE(run.executor_kernels, run.inspector_launches * 2);
}

TEST(BinningEdges, DisablingEagerPushesTileSeedsIntoBinZeroKernels) {
  auto [a, b] = island_pair(3000, 120, 0xb1f);
  ScoreParams p = lastz_default_params();
  p.ydrop = 1500;
  const FastzStudy study(a, b, p);
  FastzConfig no_eager = FastzConfig::full();
  no_eager.eager_traceback = false;
  const FastzRun run = study.derive(no_eager, gpusim::rtx3080_ampere());
  EXPECT_EQ(run.eager_handled, 0u);
  EXPECT_EQ(run.executor_tasks, run.census.total);
}

}  // namespace
}  // namespace fastz
