#include "fastz/binning.hpp"

#include <gtest/gtest.h>

#include "fastz/config.hpp"

namespace fastz {
namespace {

SeedInspection make_inspection(std::uint32_t li, std::uint32_t lj, std::uint32_t ri,
                               std::uint32_t rj) {
  SeedInspection ins;
  ins.left.best = BestCell{0, li, lj};
  ins.right.best = BestCell{0, ri, rj};
  return ins;
}

TEST(Binning, BinIndexBoundaries) {
  EXPECT_EQ(bin_index(0), 0u);
  EXPECT_EQ(bin_index(512), 0u);
  EXPECT_EQ(bin_index(513), 1u);
  EXPECT_EQ(bin_index(2048), 1u);
  EXPECT_EQ(bin_index(2049), 2u);
  EXPECT_EQ(bin_index(8192), 2u);
  EXPECT_EQ(bin_index(8193), 3u);
  EXPECT_EQ(bin_index(32768), 3u);
  EXPECT_EQ(bin_index(32769), 4u);  // overflow
}

TEST(Binning, PaperBinBoundaries) {
  // Section 3.3: bins at 512, 2048, 8192, 32768 (4x scaling).
  EXPECT_EQ(kBinEdges[0], 512u);
  EXPECT_EQ(kBinEdges[1], 2048u);
  EXPECT_EQ(kBinEdges[2], 8192u);
  EXPECT_EQ(kBinEdges[3], 32768u);
  for (std::size_t k = 1; k < kBinEdges.size(); ++k) {
    EXPECT_EQ(kBinEdges[k], kBinEdges[k - 1] * 4);
  }
}

TEST(Binning, EagerEligibilityRequiresBothSidesInTile) {
  EXPECT_TRUE(eager_eligible(make_inspection(16, 16, 16, 16), 16));
  EXPECT_TRUE(eager_eligible(make_inspection(0, 0, 0, 0), 16));
  EXPECT_FALSE(eager_eligible(make_inspection(17, 0, 0, 0), 16));
  EXPECT_FALSE(eager_eligible(make_inspection(0, 17, 0, 0), 16));
  EXPECT_FALSE(eager_eligible(make_inspection(0, 0, 17, 0), 16));
  EXPECT_FALSE(eager_eligible(make_inspection(0, 0, 0, 17), 16));
}

TEST(Binning, BoxCombinesBothSides) {
  const SeedInspection ins = make_inspection(100, 90, 50, 70);
  EXPECT_EQ(ins.a_extent(), 150u);
  EXPECT_EQ(ins.b_extent(), 160u);
  EXPECT_EQ(ins.box(), 160u);
}

TEST(Binning, CensusClassifies) {
  const FastzConfig config;
  BinCensus census;
  census.add(make_inspection(2, 2, 3, 3), config.eager_tile);     // eager
  census.add(make_inspection(100, 100, 100, 100), config.eager_tile);  // bin1
  census.add(make_inspection(600, 600, 600, 600), config.eager_tile);  // bin2
  census.add(make_inspection(3000, 3000, 3000, 3000), config.eager_tile);  // bin3
  census.add(make_inspection(9000, 9000, 9000, 9000), config.eager_tile);  // bin4
  census.add(make_inspection(40000, 1, 1, 1), config.eager_tile);  // overflow

  EXPECT_EQ(census.total, 6u);
  EXPECT_EQ(census.eager, 1u);
  EXPECT_EQ(census.bins[0], 1u);
  EXPECT_EQ(census.bins[1], 1u);
  EXPECT_EQ(census.bins[2], 1u);
  EXPECT_EQ(census.bins[3], 1u);
  EXPECT_EQ(census.overflow, 1u);
  EXPECT_NEAR(census.eager_fraction(), 1.0 / 6.0, 1e-12);
}

TEST(Binning, SeventeenBasePairAlignmentLandsInBin1) {
  // The paper's census: "upto 16 base pairs in eager traceback, 16-512 in
  // bin1". A 17-bp alignment is the smallest non-eager one.
  const FastzConfig config;
  BinCensus census;
  census.add(make_inspection(17, 17, 0, 0), config.eager_tile);
  EXPECT_EQ(census.eager, 0u);
  EXPECT_EQ(census.bins[0], 1u);
}

}  // namespace
}  // namespace fastz
