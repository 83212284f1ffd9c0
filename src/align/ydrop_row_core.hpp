// Shared row-sweep core of the y-drop DP.
//
// `ydrop_one_sided_align` (full-trace path) and `ydrop_linear_traceback`
// (Hirschberg checkpoint-bisection path, ydrop_linear.cpp) must advance
// rows with EXACTLY the same arithmetic, pruning, and packed traceback
// codes: the linear path replays rows from checkpoints, and its output is
// required to be bit-identical to the full path at every split point. One
// shared row step (sweep_row) makes that equivalence structural instead of
// aspirational.
//
// sweep_row has two bodies. Conservative rows on a vector ISA — the
// inspector's score-only rows and the executor's, dense or Hirschberg,
// traced or not — run advance_row_scan, one vector pass over the row
// (row_precompute_impl.hpp). Sequential-prune rows (LASTZ) and every row
// under the forced-scalar ISA run the scalar advance_row, whose serial S/I
// chain is the reference the scan is proven and tested against.
//
// Internal header — everything here is an implementation detail of the two
// drivers in src/align; nothing outside `fastz::detail` should include it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "align/gotoh_reference.hpp"
#include "align/row_precompute.hpp"
#include "align/seq_view.hpp"
#include "align/traceback.hpp"
#include "score/score_params.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace fastz::detail {

// 64-byte-aligned row storage: the vectorized phase-A precompute loads the
// previous row's S/D planes with full vectors.
using AlignedScores = std::vector<Score, util::AlignedAllocator<Score, 64>>;

// One DP row: scores for columns [lo, lo + width). Pruned cells store
// kNegativeInfinity so downstream reads see them as unreachable — LASTZ's
// hard-prune semantics. Buffers are reused across rows (the inner loop must
// not allocate) and keep kRowScanPad slack for the row scan's full-width
// final vector. The next row reads only `s` and `gd`; the row scan leaves
// `gi` unwritten.
struct ScoreRow {
  std::uint32_t lo = 0;
  std::uint32_t width = 0;
  std::uint32_t first = 0;  // first viable column (absolute)
  std::uint32_t last = 0;   // last viable column (absolute)
  AlignedScores s;
  AlignedScores gi;
  AlignedScores gd;

  void ensure_capacity(std::size_t n) {
    if (s.size() < n + kRowScanPad) {
      s.resize(n + kRowScanPad);
      gi.resize(n + kRowScanPad);
      gd.resize(n + kRowScanPad);
    }
  }
};

struct TraceRow {
  std::uint32_t lo = 0;
  std::vector<TraceCode> codes;
};

// Saturating add that keeps kNegativeInfinity absorbing.
constexpr Score add_score(Score base, Score delta) noexcept {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

// Code of row-0 cell (0, j): the origin at j == 0, else the pure insertion
// chain (opened at j == 1). Must match what init_row0 records — the linear
// path synthesizes row-0 codes from this instead of materializing them.
constexpr TraceCode row0_code(std::uint32_t j) noexcept {
  return j == 0 ? make_trace(kTraceSrcOrigin, false, false)
                : make_trace(kTraceSrcI, j == 1, false);
}

// Engage the vectorized phase-A precompute only when the core span is at
// least this wide; narrower rows are pure overhead for a vector setup.
inline constexpr std::uint32_t kRowSimdMinSpan = 8;

// Mutable SIMD scratch owned by the row sweep. The fn pointers are resolved
// once per sweep from the active ISA (`fn`, the phase-A precompute of the
// scalar row, for a sequential sweep; `scan` for a conservative one); the
// score profile
// (profile[c][j] == subst[c][b[j]]) is built lazily up to a column
// watermark with amortized doubling so short extensions never pay for the
// full sequence. All buffers are reused across rows and die with the sweep.
struct RowSimdState {
  RowPrecomputeFn fn = nullptr;
  RowScanFn scan = nullptr;
  std::array<AlignedScores, kAlphabetSize> profile;
  std::uint32_t built = 0;  // profile covers columns [0, built)
  AlignedScores d_val;
  AlignedScores diag;
  std::vector<std::uint8_t> d_opened;
};

// Immutable per-call state of a row sweep.
struct RowContext {
  SeqView a;
  SeqView b;
  const ScoreParams* params = nullptr;
  std::uint32_t n = 0;             // usable columns (after the max_cols clamp)
  std::uint32_t max_right_run = 0; // insertion-chain reach past the prior row
  Score open_extend = 0;
  Score extend_only = 0;
  bool sequential = false;         // PruneMode::kSequential
  mutable RowSimdState simd;       // scratch, not semantic state
};

inline RowContext make_row_context(SeqView a, SeqView b, const ScoreParams& params,
                                   std::uint32_t n, bool sequential) {
  RowContext ctx;
  ctx.a = a;
  ctx.b = b;
  ctx.params = &params;
  ctx.n = n;
  ctx.sequential = sequential;
  // How far a viable insertion chain can run past the previous row's end:
  // each step costs |gap_extend|, and the chain dies once it is ydrop below
  // the best score.
  const Score extend_cost = -params.gap_extend;
  ctx.max_right_run =
      extend_cost > 0
          ? static_cast<std::uint32_t>((params.ydrop - params.gap_open) / extend_cost) + 2
          : n + 1;
  ctx.open_extend = params.gap_open + params.gap_extend;
  ctx.extend_only = params.gap_extend;
  if (sequential) {
    ctx.simd.fn = row_precompute_fn(simd::active_isa());
  } else {
    ctx.simd.scan = row_scan_fn(simd::active_isa());
  }
  return ctx;
}

// Row 0: a pure insertion run from the origin. Fills `prev` (and the codes
// of `trow` when non-null) and returns the row width.
inline std::uint32_t init_row0(const RowContext& ctx, ScoreRow& prev, TraceRow* trow) {
  const ScoreParams& params = *ctx.params;
  prev.ensure_capacity(std::size_t{std::min(ctx.n, ctx.max_right_run)} + 2);
  prev.lo = 0;
  prev.s[0] = 0;
  prev.gi[0] = kNegativeInfinity;
  prev.gd[0] = kNegativeInfinity;
  std::uint32_t w = 1;
  if (trow != nullptr) {
    trow->lo = 0;
    trow->codes.assign(1, row0_code(0));
  }
  for (std::uint32_t j = 1; j <= ctx.n; ++j) {
    const Score gi = params.gap_open + static_cast<Score>(j) * params.gap_extend;
    if (gi < -params.ydrop) break;  // best is still 0 at (0,0)
    prev.s[w] = gi;
    prev.gi[w] = gi;
    prev.gd[w] = kNegativeInfinity;
    ++w;
    if (trow != nullptr) trow->codes.push_back(row0_code(j));
  }
  prev.width = w;
  prev.first = 0;
  prev.last = w - 1;
  return w;
}

// Grows the score profile to cover columns [0, cols), plus kRowScanPad
// readable (unspecified) slack.
inline void grow_profile(const RowContext& ctx, std::uint32_t cols) {
  RowSimdState& st = ctx.simd;
  if (st.built >= cols) return;
  const std::uint32_t grown =
      std::min(ctx.n, std::max({cols, st.built * 2, std::uint32_t{256}}));
  for (std::uint32_t c = 0; c < kAlphabetSize; ++c) {
    st.profile[c].resize(std::size_t{grown} + kRowScanPad);
  }
  for (std::uint32_t col = st.built; col < grown; ++col) {
    const BaseCode b_code = ctx.b[col];
    for (std::uint32_t c = 0; c < kAlphabetSize; ++c) {
      st.profile[c][col] = ctx.params->subst[c][b_code];
    }
  }
  st.built = grown;
}

struct RowOutcome {
  bool any_viable = false;
  std::uint32_t first_viable = 0;
  std::uint32_t last_viable = 0;
  std::uint64_t cells = 0;  // DP cells computed by this row
};

// Advances one DP row: computes row `row` into `cur` from the completed row
// `prev`, updating `best` exactly as the prune mode dictates (sequential:
// cell-by-cell with a moving cutoff; conservative: merged after the row
// from a cutoff frozen at the best of completed rows). When `trow` is
// non-null the row's packed traceback codes are recorded (window [lo,
// lo + codes.size())). The caller swaps prev/cur on a viable outcome and
// terminates the sweep otherwise — identical control flow in every driver.
inline RowOutcome advance_row(const RowContext& ctx, std::uint32_t row, ScoreRow& prev,
                              ScoreRow& cur, BestCell& best, TraceRow* trow) {
  const ScoreParams& params = *ctx.params;
  RowOutcome outcome;

  const std::uint32_t prev_lo = prev.lo;
  const std::uint32_t prev_hi = prev_lo + prev.width;
  const std::uint32_t start_lo = prev.first;

  // Upper bound on this row's extent: the previous row's data plus a
  // bounded insertion run (and never past column n).
  const std::uint32_t j_cap = std::min(ctx.n, prev_hi + ctx.max_right_run);
  cur.ensure_capacity(std::size_t{j_cap} - start_lo + 2);
  cur.lo = start_lo;

  // Conservative mode freezes the cutoff at the best of completed rows;
  // sequential mode lets `best` advance within the row.
  const bool sequential = ctx.sequential;
  const Score frozen_cutoff = best.score - params.ydrop;
  BestCell row_best = best;
  Score cutoff = best.score - params.ydrop;

  if (trow != nullptr) {
    trow->lo = start_lo;
    trow->codes.clear();
    trow->codes.resize(std::size_t{j_cap} - start_lo + 2);
  }

  bool any_viable = false;
  std::uint32_t first_viable = 0;
  std::uint32_t last_viable = 0;

  const BaseCode a_base = ctx.a[row - 1];
  const Score* const sub_row = params.subst[a_base].data();

  Score* const cs = cur.s.data();
  Score* const ci = cur.gi.data();
  Score* const cd = cur.gd.data();
  const Score* const ps = prev.s.data();
  const Score* const pd = prev.gd.data();
  TraceCode* const tc = trow != nullptr ? trow->codes.data() : nullptr;

  // Phase A (vectorized): precompute the D candidates and diagonal sums for
  // the core span where both the up and the diag cell fall inside the
  // previous row — those depend only on completed prev-row data, so they
  // vectorize cleanly. The serial S/I chain, pruning, best tracking, and
  // traceback packing stay in the scalar loop below, which consumes these
  // arrays. The scalar early-break fires only at j >= prev_hi, strictly past
  // the core span, so no precomputed cell is wasted.
  std::uint32_t core_lo = 0;
  std::uint32_t core_count = 0;
  if (ctx.simd.fn != nullptr) {
    const std::uint32_t span_lo = std::max(std::max(start_lo, 1u), prev_lo + 1);
    const std::uint32_t span_hi = std::min(j_cap, prev_hi - 1);  // inclusive
    if (span_lo <= span_hi && span_hi - span_lo + 1 >= kRowSimdMinSpan) {
      RowSimdState& st = ctx.simd;
      grow_profile(ctx, span_hi);
      core_lo = span_lo;
      core_count = span_hi - span_lo + 1;
      if (st.d_val.size() < core_count) {
        st.d_val.resize(core_count);
        st.diag.resize(core_count);
        st.d_opened.resize(core_count);
      }
      st.fn(ps + (span_lo - prev_lo), ps + (span_lo - 1 - prev_lo),
            pd + (span_lo - prev_lo), st.profile[a_base].data() + (span_lo - 1),
            ctx.open_extend, ctx.extend_only, core_count, st.d_val.data(),
            st.diag.data(), st.d_opened.data());
    }
  }
  const Score* const sim_d = ctx.simd.d_val.data();
  const Score* const sim_g = ctx.simd.diag.data();
  const std::uint8_t* const sim_o = ctx.simd.d_opened.data();

  // Previous-row reads for absolute column j:
  //   s_diag = prev S at j-1, s_up / d_up = prev S / D at j.
  // Valid range for prev arrays: [prev_lo, prev_hi).
  std::uint32_t out = 0;  // index into cur arrays (column start_lo + out)
  Score left_s = kNegativeInfinity;  // cur row, column j-1
  Score left_i = kNegativeInfinity;

  std::uint32_t j = start_lo;
  // Column 0 border cell (only when the region still touches column 0).
  if (j == 0) {
    const Score d_val = params.gap_open + static_cast<Score>(row) * params.gap_extend;
    const bool viable = d_val >= (sequential ? cutoff : frozen_cutoff);
    cs[0] = viable ? d_val : kNegativeInfinity;
    ci[0] = kNegativeInfinity;
    cd[0] = viable ? d_val : kNegativeInfinity;
    if (tc != nullptr) tc[0] = make_trace(kTraceSrcD, false, row == 1);
    if (viable) {
      any_viable = true;
      first_viable = 0;
      last_viable = 0;
      if (sequential) {
        best.consider(cs[0], row, 0);
        cutoff = best.score - params.ydrop;
      } else {
        row_best.consider(cs[0], row, 0);
      }
    }
    left_s = cs[0];
    left_i = ci[0];
    ++outcome.cells;
    out = 1;
    j = 1;
  }

  for (; j <= j_cap; ++j, ++out) {
    // I: gap in A — arrive from the left (current row).
    const Score i_ext = add_score(left_i, ctx.extend_only);
    const Score i_open = add_score(left_s, ctx.open_extend);
    const bool i_opened = i_open >= i_ext;
    const Score i_val = i_opened ? i_open : i_ext;

    // D: gap in B — arrive from above (previous row); diag: substitution
    // candidate. Inside the core span both come precomputed from phase A
    // (bit-identical arithmetic); outside it the scalar forms below also
    // handle the missing-neighbor edges.
    Score d_val;
    Score diag;
    bool d_opened;
    if (j - core_lo < core_count) {  // unsigned: j < core_lo wraps huge
      const std::uint32_t ck = j - core_lo;
      d_val = sim_d[ck];
      diag = sim_g[ck];
      d_opened = sim_o[ck] != 0;
    } else {
      const bool has_up = (j >= prev_lo) & (j < prev_hi);
      const Score s_up = has_up ? ps[j - prev_lo] : kNegativeInfinity;
      const Score d_up = has_up ? pd[j - prev_lo] : kNegativeInfinity;
      const Score d_ext = add_score(d_up, ctx.extend_only);
      const Score d_open = add_score(s_up, ctx.open_extend);
      d_opened = d_open >= d_ext;
      d_val = d_opened ? d_open : d_ext;

      const bool has_diag = (j > prev_lo) & (j <= prev_hi);
      const Score s_diag = has_diag ? ps[j - 1 - prev_lo] : kNegativeInfinity;
      diag = add_score(s_diag, sub_row[ctx.b[j - 1]]);
    }

    // S: diagonal vs the gap states (tie preference diag > I > D).
    Score s_val = diag;
    TraceCode s_src = kTraceSrcDiag;
    if (i_val > s_val) {
      s_val = i_val;
      s_src = kTraceSrcI;
    }
    if (d_val > s_val) {
      s_val = d_val;
      s_src = kTraceSrcD;
    }
    ++outcome.cells;
    if (tc != nullptr) tc[out] = make_trace(s_src, i_opened, d_opened);

    const bool viable =
        s_val > kNegativeInfinity && s_val >= (sequential ? cutoff : frozen_cutoff);
    if (viable) {
      cs[out] = s_val;
      ci[out] = i_val;
      cd[out] = d_val;
      if (sequential) {
        if (best.improved_by(s_val, row, j)) {
          best = BestCell{s_val, row, j};
          cutoff = s_val - params.ydrop;
        }
      } else {
        row_best.consider(s_val, row, j);
      }
      if (!any_viable) {
        any_viable = true;
        first_viable = j;
      }
      last_viable = j;
      left_s = s_val;
      left_i = i_val;
    } else {
      cs[out] = kNegativeInfinity;
      ci[out] = kNegativeInfinity;
      cd[out] = kNegativeInfinity;
      left_s = kNegativeInfinity;
      left_i = kNegativeInfinity;
      // Beyond the previous row's interval only the intra-row insertion
      // chain can carry scores; once it breaks, the row is finished.
      if (j + 1 > prev_hi) {
        ++out;
        break;
      }
    }
  }

  if (!sequential) best = row_best;

  cur.width = out;
  cur.first = first_viable;
  cur.last = last_viable;
  if (trow != nullptr && any_viable) trow->codes.resize(out);

  outcome.any_viable = any_viable;
  outcome.first_viable = first_viable;
  outcome.last_viable = last_viable;
  return outcome;
}

// Conservative row on a vector ISA: the same outcome, best cell, stored S/D
// and cell count as advance_row(ctx, row, prev, cur, best, trow) with
// ctx.sequential == false, and, when `trow` is non-null, the same packed
// codes at every cell a traceback walk can read (row_precompute_impl.hpp).
// Every cell with a diagonal neighbour in the previous row — columns up to
// prev_hi, the last through a -inf sentinel written one past `prev` — goes
// through ctx.simd.scan in one branch-free vector pass. What stays scalar
// has at most one source: the column-0 border and the first cell (D only),
// and the insertion run past prev_hi (I only); those cells write their
// codes exactly as advance_row does. `prev` needs kRowScanPad slack past its
// width. Requires ctx.simd.scan.
inline RowOutcome advance_row_scan(const RowContext& ctx, std::uint32_t row,
                                   ScoreRow& prev, ScoreRow& cur, BestCell& best,
                                   TraceRow* trow) {
  const std::uint32_t prev_lo = prev.lo;
  const std::uint32_t prev_hi = prev_lo + prev.width;
  const std::uint32_t start_lo = prev.first;
  const std::uint32_t j_cap = std::min(ctx.n, prev_hi + ctx.max_right_run);
  const std::uint32_t span_lo = std::max(std::max(start_lo, 1u), prev_lo + 1);
  const std::uint32_t span_hi = std::min(j_cap, prev_hi);  // inclusive
  if (span_lo > span_hi) return advance_row(ctx, row, prev, cur, best, trow);

  const ScoreParams& params = *ctx.params;
  cur.ensure_capacity(std::size_t{j_cap} - start_lo + 2);
  cur.lo = start_lo;
  const Score cutoff = best.score - params.ydrop;
  BestCell row_best = best;
  Score* const cs = cur.s.data();
  Score* const cd = cur.gd.data();
  Score* const ps = prev.s.data();
  Score* const pd = prev.gd.data();
  TraceCode* tc = nullptr;
  if (trow != nullptr) {
    trow->lo = start_lo;
    trow->codes.resize(std::size_t{j_cap} - start_lo + 2 + kRowScanPad);
    tc = trow->codes.data();
  }

  bool any_viable = false;
  std::uint32_t first_viable = 0;
  std::uint32_t last_viable = 0;
  const auto mark_viable = [&](std::uint32_t first, std::uint32_t last) {
    if (!any_viable) {
      any_viable = true;
      first_viable = first;
    }
    last_viable = last;
  };
  // Stores one scalar cell whose S is its single candidate `v`.
  const auto edge_cell = [&](std::uint32_t j, std::uint32_t out, Score v, bool viable,
                             Score d_val, TraceCode code) {
    cs[out] = viable ? v : kNegativeInfinity;
    cd[out] = viable ? d_val : kNegativeInfinity;
    if (tc != nullptr) tc[out] = code;
    if (viable) {
      row_best.consider(v, row, j);
      mark_viable(j, j);
    }
  };

  std::uint32_t out = 0;
  if (start_lo == 0) {  // column 0 border, as in advance_row
    const Score d_val = params.gap_open + static_cast<Score>(row) * params.gap_extend;
    edge_cell(0, 0, d_val, d_val >= cutoff, d_val, make_trace(kTraceSrcD, false, row == 1));
    out = 1;
  } else if (start_lo == prev_lo) {  // no diagonal and no left neighbour
    const Score d_ext = add_score(pd[0], ctx.extend_only);
    const Score d_open = add_score(ps[0], ctx.open_extend);
    const Score d_val = std::max(d_ext, d_open);
    const bool reached = d_val > kNegativeInfinity;
    edge_cell(start_lo, 0, d_val, reached && d_val >= cutoff, d_val,
              make_trace(reached ? kTraceSrcD : kTraceSrcDiag, true, d_open >= d_ext));
    out = 1;
  }

  grow_profile(ctx, span_hi);
  // Column prev_hi has no up cell. Indexed through the vectors, so a row
  // stored without its kRowScanPad slack trips _GLIBCXX_ASSERTIONS.
  prev.s[prev.width] = kNegativeInfinity;
  prev.gd[prev.width] = kNegativeInfinity;
  const BaseCode a_base = ctx.a[row - 1];
  RowScanArgs args;
  args.s_up = ps + (span_lo - prev_lo);
  args.s_diag = ps + (span_lo - 1 - prev_lo);
  args.gd_up = pd + (span_lo - prev_lo);
  args.prof = ctx.simd.profile[a_base].data() + (span_lo - 1);
  args.count = span_hi - span_lo + 1;
  args.open_extend = ctx.open_extend;
  args.extend_only = ctx.extend_only;
  args.left_s = out == 0 ? kNegativeInfinity : cs[0];
  args.floor = static_cast<Score>(std::max<std::int64_t>(
      std::int64_t{cutoff} - 1, std::int64_t{kNegativeInfinity}));
  args.s_out = cs + out;
  args.d_out = cd + out;
  args.codes = tc != nullptr ? tc + out : nullptr;
  const RowScanResult span = ctx.simd.scan(args);
  if (span.first < args.count) {
    mark_viable(span_lo + static_cast<std::uint32_t>(span.first),
                span_lo + static_cast<std::uint32_t>(span.last));
    row_best.consider(span.best, row, span_lo + static_cast<std::uint32_t>(span.best_at));
  }
  out += static_cast<std::uint32_t>(args.count);

  // Past prev_hi only the insertion chain carries scores, and the row ends
  // at its first pruned cell (counted).
  Score left_s = cs[out - 1];
  Score left_i = span.exit_i;
  for (std::uint32_t j = span_hi + 1; j <= j_cap && left_s > kNegativeInfinity;
       ++j, ++out) {
    const Score i_ext = add_score(left_i, ctx.extend_only);
    const Score i_open = add_score(left_s, ctx.open_extend);
    const Score i_val = std::max(i_ext, i_open);
    const bool reached = i_val > kNegativeInfinity;
    const bool viable = reached && i_val >= cutoff;
    edge_cell(j, out, i_val, viable, kNegativeInfinity,
              make_trace(reached ? kTraceSrcI : kTraceSrcDiag, i_open >= i_ext, true));
    left_s = cs[out];
    left_i = viable ? i_val : kNegativeInfinity;
  }

  best = row_best;
  cur.width = out;
  cur.first = first_viable;
  cur.last = last_viable;
  if (trow != nullptr) trow->codes.resize(out);

  RowOutcome outcome;
  outcome.any_viable = any_viable;
  outcome.first_viable = first_viable;
  outcome.last_viable = last_viable;
  outcome.cells = out;  // every computed cell, the one that ends the row included
  return outcome;
}

// One row of either driver: the vector row scan when the context has one
// (conservative prune on a vector ISA), else the scalar advance_row.
inline RowOutcome sweep_row(const RowContext& ctx, std::uint32_t row, ScoreRow& prev,
                            ScoreRow& cur, BestCell& best, TraceRow* trow) {
  return ctx.simd.scan != nullptr ? advance_row_scan(ctx, row, prev, cur, best, trow)
                                  : advance_row(ctx, row, prev, cur, best, trow);
}

}  // namespace fastz::detail
