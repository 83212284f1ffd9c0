#include "align/ydrop_align.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/ydrop_row_core.hpp"

namespace fastz {

// Full-trace driver over the shared row core (ydrop_row_core.hpp): every
// explored row's packed codes are retained, so traceback is a single walk.
// `ydrop_linear_traceback` (ydrop_linear.cpp) runs the same rows but keeps
// only O(n+m) of trace state. The inspector's configuration (conservative,
// no traceback) runs the score-only vector row scan instead when the active
// ISA has one; its results are identical to the scalar rows.
OneSidedResult ydrop_one_sided_align(SeqView a, SeqView b, const ScoreParams& params,
                                     const OneSidedOptions& options) {
  using detail::ScoreRow;
  using detail::TraceRow;

  params.validate();
  OneSidedResult result;
  result.best = BestCell{0, 0, 0};

  const auto n = static_cast<std::uint32_t>(std::min<std::size_t>(b.size(), options.max_cols));
  const auto m = static_cast<std::uint32_t>(std::min<std::size_t>(a.size(), options.max_rows));
  result.truncated = (n < b.size()) || (m < a.size());

  std::vector<TraceRow> trace;
  const bool keep_trace = options.want_traceback;
  if (options.record_row_bounds) result.row_bounds.reserve(128);

  const detail::RowContext ctx = detail::make_row_context(
      a, b, params, n, options.prune == PruneMode::kSequential);
  if (!keep_trace && options.prune == PruneMode::kConservative) {
    ctx.simd.scan = detail::row_scan_fn(simd::active_isa());
  }

  // ---- Row 0: a pure insertion run from the origin. -----------------------
  ScoreRow prev;
  ScoreRow cur;
  TraceRow row0;
  const std::uint32_t w = detail::init_row0(ctx, prev, keep_trace ? &row0 : nullptr);
  if (keep_trace) trace.push_back(std::move(row0));
  result.max_row_width = w;
  result.cells += w;
  if (options.record_row_bounds) result.row_bounds.push_back({0, w});

  // ---- Rows 1..m ----------------------------------------------------------
  TraceRow trow;
  for (std::uint32_t row = 1; row <= m; ++row) {
    const detail::RowOutcome o =
        ctx.simd.scan != nullptr
            ? detail::advance_row_scan(ctx, row, prev, cur, result.best)
            : detail::advance_row(ctx, row, prev, cur, result.best,
                                  keep_trace ? &trow : nullptr);
    result.cells += o.cells;
    if (!o.any_viable) break;

    std::swap(prev, cur);
    if (keep_trace) {
      trace.push_back(TraceRow{trow.lo, trow.codes});  // copy keeps trow's capacity
    }
    if (options.record_row_bounds) {
      result.row_bounds.push_back({o.first_viable, o.last_viable + 1});
    }
    result.max_row_width = std::max(result.max_row_width, o.last_viable + 1 - o.first_viable);
    result.rows_explored = row;
  }

  if (keep_trace) {
    const std::uint32_t ti = options.trace_from_fixed ? options.trace_i : result.best.i;
    const std::uint32_t tj = options.trace_from_fixed ? options.trace_j : result.best.j;
    result.ops = walk_traceback(ti, tj,
                                [&](std::uint32_t i, std::uint32_t j_) -> TraceCode {
                                  const TraceRow& r = trace.at(i);
                                  if (j_ < r.lo || j_ - r.lo >= r.codes.size()) {
                                    throw std::runtime_error(
                                        "ydrop_one_sided_align: traceback escaped the "
                                        "explored region");
                                  }
                                  return r.codes[j_ - r.lo];
                                });
  }
  return result;
}

}  // namespace fastz
