// Vectorized "phase A" of a DP row sweep.
//
// The y-drop row body (ydrop_row_core.hpp) and the full-matrix Gotoh
// reference share the same split: within one row, the D state and the
// diagonal candidate depend only on the PREVIOUS row, so they vectorize
// cleanly, while the S/I chain carries a serial within-row dependency (the
// insertion chain reads the cell just written) and stays scalar. This
// header is the vector half: given the previous row's S/D arrays and a
// substitution profile, it precomputes, for a contiguous column span,
//
//   d_ext    = add(gd_up[k],  gap_extend)
//   d_open   = add(s_up[k],   gap_open + gap_extend)
//   d_opened = d_open >= d_ext          (the tie rule the trace codes pin)
//   d_val    = d_opened ? d_open : d_ext
//   diag     = add(s_diag[k], prof[k])
//
// in two flavors of `add`: the y-drop core's saturating add_score (where
// kNegativeInfinity absorbs) and the Gotoh reference's plain integer add.
// Both are bit-identical to their scalar ancestors by construction — the
// scalar phase B consumes these values verbatim.
//
// Internal header of src/align (fastz::detail).
#pragma once

#include <cstddef>
#include <cstdint>

#include "score/score_params.hpp"
#include "util/simd.hpp"

namespace fastz::detail {

// d_val / diag / d_opened are written for k in [0, count). All input and
// output spans may be unaligned; they must not overlap.
using RowPrecomputeFn = void (*)(const Score* s_up, const Score* s_diag,
                                 const Score* gd_up, const Score* prof,
                                 Score open_extend, Score extend_only,
                                 std::size_t count, Score* d_val, Score* diag,
                                 std::uint8_t* d_opened);

// Scalar references (also the tail loop of every vector variant).
void row_precompute_scalar(const Score* s_up, const Score* s_diag, const Score* gd_up,
                           const Score* prof, Score open_extend, Score extend_only,
                           std::size_t count, Score* d_val, Score* diag,
                           std::uint8_t* d_opened);
void row_precompute_plain_scalar(const Score* s_up, const Score* s_diag,
                                 const Score* gd_up, const Score* prof,
                                 Score open_extend, Score extend_only, std::size_t count,
                                 Score* d_val, Score* diag, std::uint8_t* d_opened);

// Saturating-add variant for `isa` (y-drop semantics), or null when the ISA
// is scalar / not compiled into this binary — callers fall back to their
// original scalar row body.
RowPrecomputeFn row_precompute_fn(simd::Isa isa) noexcept;

// Plain-add variant (Gotoh reference semantics); same fallback contract.
RowPrecomputeFn row_precompute_plain_fn(simd::Isa isa) noexcept;

// ---- Row scan -----------------------------------------------------------------
//
// The whole core span of one conservative-mode y-drop row in one vector
// pass: D, diag and H = max(diag, D) per lane, the insertion chain I as a
// max-plus prefix scan over H, S = max(H, I), the viability mask, the row's
// best cell and viable bounds and, when `codes` is set, the packed
// traceback code of every span column. The exactness arguments sit beside
// the template body (row_precompute_impl.hpp); the caller is
// advance_row_scan (ydrop_row_core.hpp).

// Slack, in scores, that every buffer the scan reads or writes must have
// past its last span column: the final vector runs full width with its
// excess lanes masked off. At least the widest vector's lane count.
inline constexpr std::size_t kRowScanPad = 16;

struct RowScanArgs {
  const Score* s_up = nullptr;    // previous row S at the span's columns
  const Score* s_diag = nullptr;  // previous row S one column to the left
  const Score* gd_up = nullptr;   // previous row D at the span's columns
  const Score* prof = nullptr;    // substitution score of each span column
  std::size_t count = 0;          // span width, >= 1
  Score open_extend = 0;
  Score extend_only = 0;
  // This row's S one column left of the span, as the scalar sweep leaves it
  // (kNegativeInfinity when that cell is pruned or absent). Its I is -inf:
  // that cell, if any, is the column-0 border or has no left neighbour.
  Score left_s = kNegativeInfinity;
  // A cell is viable iff S > floor, i.e. max(cutoff - 1, kNegativeInfinity).
  Score floor = kNegativeInfinity;
  // S and D per span column, kNegativeInfinity where not viable. Written
  // for count rounded up to the lane count.
  Score* s_out = nullptr;
  Score* d_out = nullptr;
  // Packed TraceCode per span column (traceback.hpp), or null for a
  // score-only row. Written for count rounded up to the lane count; equal
  // to the scalar row's codes wherever a traceback walk can read them.
  std::uint8_t* codes = nullptr;
};

struct RowScanResult {
  std::size_t first = 0;            // first viable span index (count: none)
  std::size_t last = 0;             // last viable span index
  Score best = kNegativeInfinity;   // largest viable S (kNegativeInfinity: none)
  std::size_t best_at = 0;          // first span index holding `best`
  Score exit_i = kNegativeInfinity; // I at the last column if viable, for the tail
};

using RowScanFn = RowScanResult (*)(const RowScanArgs& args);

// Scan body for `isa`, or null when the ISA is scalar / not compiled into
// this binary — the caller then runs the scalar advance_row.
RowScanFn row_scan_fn(simd::Isa isa) noexcept;

}  // namespace fastz::detail
