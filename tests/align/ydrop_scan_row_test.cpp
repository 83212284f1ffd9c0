// The score-only vector row scan (advance_row_scan) against the scalar
// advance_row, one synthetic row at a time, under every available vector
// ISA. Each case builds a previous row by hand — runs of -inf, cells below
// the cutoff inside viable runs, rows touching column 0, a max_cols clamp —
// and requires the outcome, the best cell and the stored S/D planes to be
// identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/ydrop_align.hpp"
#include "align/ydrop_row_core.hpp"
#include "testing/test_sequences.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"

namespace fastz {
namespace {

using detail::RowOutcome;
using detail::ScoreRow;

std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : simd::available_isas()) {
    if (isa != simd::Isa::kScalar) isas.push_back(isa);
  }
  return isas;
}

struct NamedParams {
  std::string name;
  ScoreParams params;
};

std::vector<NamedParams> param_sets() {
  ScoreParams lastz = lastz_default_params();
  lastz.ydrop = 2000;
  ScoreParams no_extend = test_params(300);
  no_extend.gap_open = -10;
  no_extend.gap_extend = 0;
  ScoreParams no_open = test_params(300);
  no_open.gap_open = 0;
  no_open.gap_extend = -5;
  ScoreParams free_gaps = test_params(40);
  free_gaps.gap_open = 0;
  free_gaps.gap_extend = 0;
  return {{"lastz", lastz},
          {"test_params", test_params()},  // y-drop 2^28: cutoff near -inf
          {"gap_extend0", no_extend},
          {"gap_open0", no_open},
          {"free_gaps", free_gaps}};
}

enum class Fill { kMixed, kAllViable, kNegRuns };

// A previous row of `width` cells around `best`: viable scores (some above
// `best`, so the row can move the best cell), cells just at or below the
// cutoff, and -inf, in proportions set by `fill`.
void fill_prev(ScoreRow& prev, std::uint32_t width, const ScoreParams& p,
               const BestCell& best, Fill fill, Xoshiro256& rng) {
  const Score cutoff = best.score - p.ydrop;
  prev.ensure_capacity(width);
  prev.width = width;
  for (std::uint32_t k = 0; k < width; ++k) {
    Score s = kNegativeInfinity;
    const std::uint64_t r = rng.below(10);
    if (fill == Fill::kAllViable || r >= 4) {
      s = best.score + 20 - static_cast<Score>(rng.below(std::min<Score>(p.ydrop, 400) + 21));
    } else if (r == 3) {
      s = cutoff + static_cast<Score>(rng.below(3));  // at the cutoff
    } else if (r == 2) {
      s = cutoff - 1 - static_cast<Score>(rng.below(60));  // pruned in the middle
    }
    prev.s[k] = s;
    prev.gd[k] = (s > kNegativeInfinity && rng.below(2) == 0)
                     ? s - static_cast<Score>(rng.below(100))
                     : kNegativeInfinity;
  }
  if (fill == Fill::kNegRuns && width > 2) {
    const std::uint32_t runs = 1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t run = 0; run < runs; ++run) {
      // The first run leads the row, so viable cells can start vectors in.
      const auto at = run == 0 ? 0u : static_cast<std::uint32_t>(rng.below(width));
      const auto len = 1 + static_cast<std::uint32_t>(rng.below(20));
      for (std::uint32_t k = at; k < std::min(width, at + len); ++k) {
        prev.s[k] = kNegativeInfinity;
        prev.gd[k] = kNegativeInfinity;
      }
    }
  }
}

struct RowCase {
  ScoreParams params;
  std::uint32_t n = 0;  // usable columns; < b.size() is a max_cols clamp
  std::uint32_t row = 7;
  BestCell best;
  ScoreRow prev;
};

void expect_scan_matches_scalar(const RowCase& rc, const Sequence& a, const Sequence& b,
                                simd::Isa isa, const std::string& label) {
  const SeqView av(a.codes().data(), 1, a.size());
  const SeqView bv(b.codes().data(), 1, b.size());
  ScoreRow prev = rc.prev;

  ScoreRow want_row;
  BestCell want_best = rc.best;
  RowOutcome want;
  {
    simd::ScopedIsa force(simd::Isa::kScalar);
    const detail::RowContext ctx = detail::make_row_context(av, bv, rc.params, rc.n, false);
    want = detail::advance_row(ctx, rc.row, prev, want_row, want_best, nullptr);
  }

  simd::ScopedIsa force(isa);
  const detail::RowContext ctx = detail::make_row_context(av, bv, rc.params, rc.n, false);
  ctx.simd.scan = detail::row_scan_fn(isa);
  ASSERT_NE(ctx.simd.scan, nullptr) << label;
  ScoreRow got_row;
  BestCell got_best = rc.best;
  const RowOutcome got = detail::advance_row_scan(ctx, rc.row, prev, got_row, got_best);

  ASSERT_EQ(got.any_viable, want.any_viable) << label;
  EXPECT_EQ(got.cells, want.cells) << label;
  EXPECT_EQ(got_best.score, want_best.score) << label;
  EXPECT_EQ(got_best.i, want_best.i) << label;
  EXPECT_EQ(got_best.j, want_best.j) << label;
  ASSERT_EQ(got_row.lo, want_row.lo) << label;
  ASSERT_EQ(got_row.width, want_row.width) << label;
  if (want.any_viable) {
    EXPECT_EQ(got.first_viable, want.first_viable) << label;
    EXPECT_EQ(got.last_viable, want.last_viable) << label;
    EXPECT_EQ(got_row.first, want_row.first) << label;
    EXPECT_EQ(got_row.last, want_row.last) << label;
  }
  for (std::uint32_t k = 0; k < want_row.width; ++k) {
    ASSERT_EQ(got_row.s[k], want_row.s[k]) << label << " S at column " << want_row.lo + k;
    ASSERT_EQ(got_row.gd[k], want_row.gd[k]) << label << " D at column " << want_row.lo + k;
  }
}

// Previous-row placements: interior with the diagonal-less first cell
// (first == lo), interior starting one column in, touching column 0, and
// clamped by max_cols inside the previous row.
enum class Shape { kInteriorHead, kInterior, kColumnZero, kClamped };

TEST(YdropScanRow, MatchesScalarRowAcrossWidthsShapesAndParams) {
  const std::vector<simd::Isa> isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this host";
  const Sequence a = testing::random_dna(16, 11);
  const Sequence b = testing::random_dna(200, 12);
  Xoshiro256 rng(0x5ca9);

  for (const simd::Isa isa : isas) {
    const std::uint32_t max_width = 3 * simd::isa_lanes(isa) + 4;  // spans 0..3W+4
    for (const NamedParams& np : param_sets()) {
      for (const Shape shape :
           {Shape::kInteriorHead, Shape::kInterior, Shape::kColumnZero, Shape::kClamped}) {
        for (const Fill fill : {Fill::kMixed, Fill::kAllViable, Fill::kNegRuns}) {
          for (std::uint32_t width = 1; width <= max_width; ++width) {
            for (int trial = 0; trial < 4; ++trial) {
              RowCase rc;
              rc.params = np.params;
              rc.n = static_cast<std::uint32_t>(b.size());
              rc.best = BestCell{60, rc.row - 1, 9};
              rc.prev.lo = shape == Shape::kColumnZero ? 0 : 9;
              fill_prev(rc.prev, width, rc.params, rc.best, fill, rng);
              rc.prev.first = rc.prev.lo + (shape == Shape::kInterior && width > 1 ? 1 : 0);
              rc.prev.last = rc.prev.lo + width - 1;
              if (shape == Shape::kClamped) rc.n = rc.prev.lo + width / 2;
              const std::string label = std::string(simd::isa_name(isa)) + " " + np.name +
                                        " shape=" + std::to_string(static_cast<int>(shape)) +
                                        " fill=" + std::to_string(static_cast<int>(fill)) +
                                        " width=" + std::to_string(width) +
                                        " trial=" + std::to_string(trial);
              expect_scan_matches_scalar(rc, a, b, isa, label);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

// A viable run whose insertion chain crosses a cell pruned only by the
// cutoff: the scan carries the chain through it, the scalar sweep resets
// it, and the stored rows must still agree.
TEST(YdropScanRow, ChainThroughAPrunedCellMatchesScalar) {
  const std::vector<simd::Isa> isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this host";
  const Sequence a = testing::random_dna(16, 21);
  const Sequence b = testing::random_dna(120, 22);
  for (const simd::Isa isa : isas) {
    for (const NamedParams& np : param_sets()) {
      RowCase rc;
      rc.params = np.params;
      rc.n = static_cast<std::uint32_t>(b.size());
      rc.best = BestCell{60, rc.row - 1, 9};
      rc.prev.lo = 9;
      rc.prev.first = 9;
      const std::uint32_t width = 40;
      rc.prev.ensure_capacity(width);
      rc.prev.width = width;
      rc.prev.last = rc.prev.lo + width - 1;
      const Score cutoff = rc.best.score - rc.params.ydrop;
      for (std::uint32_t k = 0; k < width; ++k) {
        rc.prev.s[k] = k == 3 ? rc.best.score : cutoff + 1;
        if (k % 11 == 7) rc.prev.s[k] = cutoff - 1;
        rc.prev.gd[k] = kNegativeInfinity;
      }
      expect_scan_matches_scalar(rc, a, b, isa,
                                 std::string(simd::isa_name(isa)) + " " + np.name);
    }
  }
}

// Whole inspector sweeps: every field the inspector reads must match the
// forced-scalar sweep, on related pairs under each parameter set.
TEST(YdropScanRow, InspectorSweepMatchesScalarSweep) {
  const std::vector<simd::Isa> isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this host";
  OneSidedOptions opts;
  opts.prune = PruneMode::kConservative;
  opts.want_traceback = false;
  opts.record_row_bounds = true;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto [a, b] = testing::related_pair(400, 0.8, seed);
    for (const NamedParams& np : param_sets()) {
      OneSidedOptions capped = opts;
      if (seed % 2 == 0) capped.max_cols = 250;
      OneSidedResult want;
      {
        simd::ScopedIsa force(simd::Isa::kScalar);
        want = ydrop_one_sided_align(a.codes(), b.codes(), np.params, capped);
      }
      for (const simd::Isa isa : isas) {
        simd::ScopedIsa force(isa);
        const OneSidedResult got = ydrop_one_sided_align(a.codes(), b.codes(), np.params, capped);
        const std::string label = std::string(simd::isa_name(isa)) + " " + np.name +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(got.best.score, want.best.score) << label;
        EXPECT_EQ(got.best.i, want.best.i) << label;
        EXPECT_EQ(got.best.j, want.best.j) << label;
        EXPECT_EQ(got.cells, want.cells) << label;
        EXPECT_EQ(got.rows_explored, want.rows_explored) << label;
        EXPECT_EQ(got.max_row_width, want.max_row_width) << label;
        EXPECT_EQ(got.truncated, want.truncated) << label;
        ASSERT_EQ(got.row_bounds.size(), want.row_bounds.size()) << label;
        for (std::size_t r = 0; r < want.row_bounds.size(); ++r) {
          EXPECT_EQ(got.row_bounds[r].lo, want.row_bounds[r].lo) << label << " row " << r;
          EXPECT_EQ(got.row_bounds[r].hi, want.row_bounds[r].hi) << label << " row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastz
