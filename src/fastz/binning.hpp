// Alignment-length census and executor length bins (Section 3.3).
//
// The inspector's optimal-cell knowledge classifies every seed extension by
// the square box that contains its optimal alignment: the eager tile
// (<= 16 bp), then bins bounded at 512, 2048, 8192 and 32768 bp. The census
// itself is Table 2 of the paper. The paper bundles executor tasks per bin
// into their own kernels; derive() packs every bin into the same
// LPT-balanced launches instead, so the edges move the census and the
// per-bin telemetry but no modeled time (EXPERIMENTS.md records this).
#pragma once

#include <array>
#include <cstdint>

#include "fastz/inspector.hpp"

namespace fastz {

// Section 3.3: executor bin upper bounds (square side, base pairs).
inline constexpr std::array<std::uint32_t, 4> kBinEdges = {512, 2048, 8192, 32768};

// True when both sides' optimal cells fall inside the eager tile — the
// alignment-length property (independent of whether eager traceback is
// enabled in the active configuration).
inline bool eager_eligible(const SeedInspection& inspection, std::uint32_t tile) {
  return inspection.left.best.i <= tile && inspection.left.best.j <= tile &&
         inspection.right.best.i <= tile && inspection.right.best.j <= tile;
}

// Bin index for a non-eager alignment box: 0..3 for the kBinEdges bins,
// 4 for overflow (larger than the last bin; the paper's benchmarks never
// needed more, but the overflow bin keeps the census total exact).
inline std::size_t bin_index(std::uint64_t box) {
  for (std::size_t k = 0; k < kBinEdges.size(); ++k) {
    if (box <= kBinEdges[k]) return k;
  }
  return kBinEdges.size();
}

struct BinCensus {
  std::uint64_t total = 0;
  std::uint64_t eager = 0;
  std::array<std::uint64_t, 4> bins{};
  std::uint64_t overflow = 0;

  void add(const SeedInspection& inspection, std::uint32_t tile) {
    ++total;
    if (eager_eligible(inspection, tile)) {
      ++eager;
      return;
    }
    const std::size_t k = bin_index(inspection.box());
    if (k < bins.size()) {
      ++bins[k];
    } else {
      ++overflow;
    }
  }

  double eager_fraction() const noexcept {
    return total ? static_cast<double>(eager) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace fastz
