// `ydrop_one_sided_align`: the gapped extension kernel of LASTZ.
//
// This is the function the paper profiles at >99.75% of sequential LASTZ's
// run time (Section 2.1) and the computation FastZ accelerates. It extends
// an alignment from an anchor in one direction using Gotoh's affine-gap
// recurrences, pruning the search space with the y-drop rule:
//
//   * a cell whose score falls more than `ydrop` below the best score seen
//     so far is pruned (treated as unreachable);
//   * pruned cells at the edges of a row shrink the active column interval;
//   * an empty interval terminates the search.
//
// Two pruning modes are provided:
//   * Sequential (LASTZ): the running best updates cell-by-cell within a
//     row — later cells of the same row can be pruned by an earlier cell's
//     score.
//   * Conservative (FastZ, Section 3.4): only scores from fully completed
//     previous rows participate in the cutoff, because a parallel kernel
//     cannot observe scores produced concurrently. This explores a superset
//     of the sequential search space, which is why FastZ reports identical
//     or occasionally longer alignments.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/alignment.hpp"
#include "align/gotoh_reference.hpp"
#include "align/seq_view.hpp"
#include "align/traceback.hpp"
#include "score/score_params.hpp"
#include "sequence/dna.hpp"

namespace fastz {

enum class PruneMode : std::uint8_t {
  kSequential,    // LASTZ: best updates within the current row
  kConservative,  // FastZ: cutoff uses completed rows only
};

struct OneSidedOptions {
  PruneMode prune = PruneMode::kSequential;
  bool want_traceback = true;
  // Safety caps on the explored extent (rows of A / columns of B). The
  // paper's largest load-balancing bin is 32768; the default leaves slack.
  // FastZ's executor trimming is expressed through these caps: the executor
  // re-runs the DP with max_rows/max_cols set to the inspector's optimal
  // cell.
  std::uint32_t max_rows = 49152;
  std::uint32_t max_cols = 49152;
  // Record the viable column interval of every explored row. The FastZ
  // inspector uses the intervals to derive the warp-strip execution
  // geometry (diagonal steps per 32-column strip) for the GPU cost model.
  bool record_row_bounds = false;
  // Trace from this cell instead of the best cell (executor use: the
  // inspector has already fixed the optimal cell; tracing from it keeps
  // inspector and executor consistent by construction). {i, j}. The ops
  // are ISA-independent when the cell is viable in this sweep, as that
  // optimum is: the vector row scan's codes match the scalar row's only
  // on cells a walk from a viable cell can reach.
  bool trace_from_fixed = false;
  std::uint32_t trace_i = 0;
  std::uint32_t trace_j = 0;
  // Hirschberg linear-space traceback (ydrop_linear_traceback). The executor
  // switches to it when the trimmed tile area (rows x cols of the traced
  // rectangle) reaches `hirschberg_area`; 0 disables the linear path
  // entirely. The default exceeds the largest bin-3 tile (32768^2), so
  // nothing changes until a workload actually has a long tail or the
  // threshold is lowered.
  std::uint64_t hirschberg_area = std::uint64_t{1} << 30;
  // Rows per materialized base block: segments at most this tall are
  // replayed once with codes and walked directly instead of split further.
  std::uint32_t hirschberg_block_rows = 64;
  // Fault injection for the differ's split canary: skews the walker's column
  // by this amount at every divide-and-conquer handoff. Must stay 0 in real
  // use; the `hirschberg-split-off-by-one` injected bug sets it to 1.
  std::int32_t hirschberg_split_skew = 0;
};

// Viable interval [lo, hi) of one explored row.
struct RowBounds {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

struct OneSidedResult {
  BestCell best;                   // optimal cell; score >= 0
  std::uint64_t cells = 0;         // DP cells computed (the search space)
  std::uint32_t rows_explored = 0; // search-space extent along A
  std::uint32_t max_row_width = 0; // widest active interval
  bool truncated = false;          // a safety cap was hit
  std::vector<AlignOp> ops;        // path (0,0) -> traced cell, if want_traceback
  std::vector<RowBounds> row_bounds;  // per explored row, if record_row_bounds
};

// Extends A[0..) x B[0..) from the shared anchor at (0, 0). Views may be
// forward (right extension) or reversed (left extension).
OneSidedResult ydrop_one_sided_align(SeqView a, SeqView b, const ScoreParams& params,
                                     const OneSidedOptions& options = {});

// Accounting from one `ydrop_linear_traceback` call. plan_cells matches the
// full-trace `cells` exactly; replay_cells is the recompute overhead of the
// divide-and-conquer (~ plan/2 * log2(rows/block_rows) + plan in the worst
// case). peak_trace_bytes is the high-water mark of materialized trace
// codes — bounded by (block_rows + 1) rows x the widest window, i.e. O(n+m)
// — and peak_checkpoint_bytes the high-water mark of retained score rows
// (one per live recursion level).
struct LinearTracebackStats {
  std::uint64_t plan_cells = 0;
  std::uint64_t replay_cells = 0;
  std::uint64_t trace_cells = 0;          // cells whose codes were materialized
  std::uint64_t peak_trace_bytes = 0;
  std::uint64_t peak_checkpoint_bytes = 0;
  std::uint32_t splits = 0;               // divide-and-conquer bisections
  std::uint32_t base_blocks = 0;          // segments traced directly
  std::uint32_t block_rows = 0;           // effective block height used
};

// Hirschberg-style linear-space variant of `ydrop_one_sided_align`:
// bit-identical best cell, cells, row bounds, and op list, but traceback
// state is bounded to O(n+m) via checkpoint bisection + forward replay
// instead of retaining every row's codes. Honors the same OneSidedOptions
// (both prune modes, caps, fixed trace cell); `hirschberg_block_rows`
// controls the base-block height and `hirschberg_split_skew` the injected
// split fault. `stats`, when non-null, receives the memory accounting.
OneSidedResult ydrop_linear_traceback(SeqView a, SeqView b, const ScoreParams& params,
                                      const OneSidedOptions& options = {},
                                      LinearTracebackStats* stats = nullptr);

inline OneSidedResult ydrop_linear_traceback(std::span<const BaseCode> a,
                                             std::span<const BaseCode> b,
                                             const ScoreParams& params,
                                             const OneSidedOptions& options = {},
                                             LinearTracebackStats* stats = nullptr) {
  return ydrop_linear_traceback(SeqView(a.data(), 1, a.size()),
                                SeqView(b.data(), 1, b.size()), params, options, stats);
}

// Convenience overload for contiguous spans (tests, small inputs).
inline OneSidedResult ydrop_one_sided_align(std::span<const BaseCode> a,
                                            std::span<const BaseCode> b,
                                            const ScoreParams& params,
                                            const OneSidedOptions& options = {}) {
  return ydrop_one_sided_align(SeqView(a.data(), 1, a.size()),
                               SeqView(b.data(), 1, b.size()), params, options);
}

}  // namespace fastz
