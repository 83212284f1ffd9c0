// Hirschberg-style linear-space traceback for the y-drop DP.
//
// Classic Hirschberg meets a forward and a reverse score pass in the middle
// row — but y-drop pruning is direction-dependent, so a reverse pass explores
// a different region and the stitched path is NOT guaranteed bit-identical to
// the full-matrix traceback. This implementation uses checkpoint bisection
// with forward replay instead: the plan sweep runs the normal forward DP
// (scores only), and traceback re-derives codes by replaying row ranges from
// checkpointed row states. Both prune modes are exactly replayable — a row's
// outcome is a deterministic function of the previous row's scores and the
// best cell at row entry, which is precisely what a checkpoint stores — so
// every cell the walker visits carries the same code the full-trace path
// would have recorded, and the op list is bit-identical by construction.
//
// Memory: at most one base block of packed codes is live at a time
// (<= block_rows + 1 rows x the widest viable window = O(n + m)), plus one
// score-row checkpoint per live recursion level (O(log(rows)) of them).
// Compute: replaying from -> mid at every level costs about
// L/2 * log2(L/block_rows) + L extra row-sweeps over a span of L rows. Every
// row — plan, replay to mid, base block — goes through the full-trace
// path's sweep_row, so on a vector ISA a conservative sweep runs all of
// them as the vector row scan: score-only for the plan and the replays to
// mid (the bulk of the cells), traced for the base blocks.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "align/ydrop_align.hpp"
#include "align/ydrop_row_core.hpp"

namespace fastz {

namespace {

using detail::RowContext;
using detail::RowOutcome;
using detail::ScoreRow;
using detail::TraceRow;

// A resumable position in the row sweep: the completed row's scores plus the
// best cell at that point. sweep_row from this state reproduces the
// original sweep exactly (either prune mode).
struct Checkpoint {
  std::uint32_t row = 0;
  ScoreRow state;
  BestCell best;
};

std::uint64_t row_state_bytes(const ScoreRow& row) {
  return std::uint64_t{row.width} * 3 * sizeof(Score);
}

// Deep copy of the row's width, into buffers that keep the kRowScanPad
// slack the row scan writes its sentinel into. A checkpoint's buffers are
// sized to its width (plus the pad), not to the scratch rows' capacity;
// row_state_bytes counts the width alone.
void copy_row(const ScoreRow& src, ScoreRow& dst) {
  dst.lo = src.lo;
  dst.width = src.width;
  dst.first = src.first;
  dst.last = src.last;
  dst.ensure_capacity(src.width);
  std::copy_n(src.s.begin(), src.width, dst.s.begin());
  std::copy_n(src.gi.begin(), src.width, dst.gi.begin());
  std::copy_n(src.gd.begin(), src.width, dst.gd.begin());
}

struct Accounting {
  std::uint64_t replay_cells = 0;
  std::uint64_t trace_cells = 0;
  std::uint64_t trace_resident = 0;
  std::uint64_t peak_trace = 0;
  std::uint64_t ckpt_resident = 0;
  std::uint64_t peak_ckpt = 0;
  std::uint32_t splits = 0;
  std::uint32_t base_blocks = 0;

  void ckpt_add(std::uint64_t bytes) {
    ckpt_resident += bytes;
    peak_ckpt = std::max(peak_ckpt, ckpt_resident);
  }
  void ckpt_drop(std::uint64_t bytes) { ckpt_resident -= bytes; }
  void trace_add(std::uint64_t bytes) {
    trace_resident += bytes;
    peak_trace = std::max(peak_trace, trace_resident);
  }
  void trace_drop(std::uint64_t bytes) { trace_resident -= bytes; }
};

// walk_traceback's state machine, split so a walk can pause at a segment
// boundary and resume over the next segment's codes. Ops accumulate in
// walk (reverse) order; the driver reverses once at the end. Step counting
// and every error condition match walk_traceback exactly — the shared limit
// spans the whole walk, not one segment.
struct Walker {
  enum class State : std::uint8_t { S, I, D };

  std::uint32_t i = 0;
  std::uint32_t j = 0;
  State state = State::S;
  std::uint64_t steps = 0;
  std::uint64_t step_limit = 0;
  std::vector<AlignOp> rops;

  template <typename CodeAt>
  void step(CodeAt&& code_at) {
    if (++steps > step_limit) {
      throw std::runtime_error("walk_traceback: cycle in traceback codes");
    }
    const TraceCode code = code_at(i, j);
    switch (state) {
      case State::S:
        switch (trace_s_src(code)) {
          case kTraceSrcDiag:
            if (i == 0 || j == 0) throw std::runtime_error("walk_traceback: diag at border");
            rops.push_back(AlignOp::Match);
            --i, --j;
            break;
          case kTraceSrcI:
            state = State::I;
            break;
          case kTraceSrcD:
            state = State::D;
            break;
          default:
            throw std::runtime_error("walk_traceback: origin code before (0,0)");
        }
        break;
      case State::I:
        if (j == 0) throw std::runtime_error("walk_traceback: I at column 0");
        rops.push_back(AlignOp::Insert);
        state = trace_i_open(code) ? State::S : State::I;
        --j;
        break;
      case State::D:
        if (i == 0) throw std::runtime_error("walk_traceback: D at row 0");
        rops.push_back(AlignOp::Delete);
        state = trace_d_open(code) ? State::S : State::D;
        --i;
        break;
    }
  }

  // Walks until the row index reaches `floor`. Only codes with row index in
  // (floor, start] are read — row `floor` itself belongs to the next segment
  // down (or to the synthesized row 0).
  template <typename CodeAt>
  void run_to(std::uint32_t floor, CodeAt&& code_at) {
    while (i > floor) step(code_at);
  }

  // Finishes the walk along row 0 to the origin.
  template <typename CodeAt>
  void run_to_origin(CodeAt&& code_at) {
    while (!(i == 0 && j == 0 && state == State::S)) step(code_at);
  }
};

// Replays rows (from.row, target], leaving row `target`'s scores in `prev`
// and the best-after-target in `best`. When `rows` is non-null, packed codes
// for the replayed rows land in (*rows)[row - from.row - 1].
void replay(const RowContext& ctx, const Checkpoint& from, std::uint32_t target,
            ScoreRow& prev, ScoreRow& cur, BestCell& best, Accounting& acct,
            std::vector<TraceRow>* rows) {
  copy_row(from.state, prev);
  best = from.best;
  for (std::uint32_t row = from.row + 1; row <= target; ++row) {
    TraceRow* trow = rows != nullptr ? &(*rows)[row - from.row - 1] : nullptr;
    const RowOutcome o = detail::sweep_row(ctx, row, prev, cur, best, trow);
    acct.replay_cells += o.cells;
    if (!o.any_viable) {
      // Impossible when target <= rows_explored of the plan sweep; kept as a
      // hard failure so a divergence surfaces instead of corrupting the walk.
      throw std::runtime_error("ydrop_linear_traceback: replay died before its target row");
    }
    std::swap(prev, cur);
  }
}

struct LinearTracer {
  const RowContext& ctx;
  std::uint32_t block_rows;
  std::int32_t split_skew;
  Walker walker;
  Accounting acct;
  ScoreRow prev;                // replay scratch
  ScoreRow cur;                 // replay scratch
  std::vector<TraceRow> block;  // base-block scratch, reused across leaves

  LinearTracer(const RowContext& ctx_, std::uint32_t block_rows_, std::int32_t skew)
      : ctx(ctx_), block_rows(block_rows_), split_skew(skew) {}

  // Walks the path from the walker's current row (== top) down to from.row.
  void trace_segment(const Checkpoint& from, std::uint32_t top) {
    const std::uint32_t span = top - from.row;
    if (span <= block_rows) {
      ++acct.base_blocks;
      if (block.size() < span) block.resize(span);
      BestCell best;
      replay(ctx, from, top, prev, cur, best, acct, &block);
      std::uint64_t bytes = 0;
      for (std::uint32_t k = 0; k < span; ++k) bytes += block[k].codes.size();
      acct.trace_cells += bytes;  // one byte per materialized cell
      acct.trace_add(bytes);
      walker.run_to(from.row, [&](std::uint32_t i, std::uint32_t j) -> TraceCode {
        const TraceRow& r = block[i - from.row - 1];
        if (j < r.lo || j - r.lo >= r.codes.size()) {
          throw std::runtime_error(
              "ydrop_linear_traceback: traceback escaped the explored region");
        }
        return r.codes[j - r.lo];
      });
      acct.trace_drop(bytes);
      return;
    }

    ++acct.splits;
    const std::uint32_t mid = from.row + span / 2;
    BestCell best;
    replay(ctx, from, mid, prev, cur, best, acct, nullptr);
    Checkpoint midcp;
    midcp.row = mid;
    midcp.best = best;
    copy_row(prev, midcp.state);
    const std::uint64_t midcp_bytes = row_state_bytes(midcp.state);
    acct.ckpt_add(midcp_bytes);

    trace_segment(midcp, top);
    // The walker is now on row `mid` — the handoff between the half
    // segments. The split canary perturbs the column here.
    if (split_skew != 0) {
      walker.j = static_cast<std::uint32_t>(static_cast<std::int64_t>(walker.j) + split_skew);
    }
    // Release the mid checkpoint before descending so live checkpoints stay
    // bounded by the recursion depth.
    acct.ckpt_drop(midcp_bytes);
    midcp.state = ScoreRow{};
    trace_segment(from, mid);
  }
};

}  // namespace

OneSidedResult ydrop_linear_traceback(SeqView a, SeqView b, const ScoreParams& params,
                                      const OneSidedOptions& options,
                                      LinearTracebackStats* stats) {
  params.validate();
  OneSidedResult result;
  result.best = BestCell{0, 0, 0};

  const auto n = static_cast<std::uint32_t>(std::min<std::size_t>(b.size(), options.max_cols));
  const auto m = static_cast<std::uint32_t>(std::min<std::size_t>(a.size(), options.max_rows));
  result.truncated = (n < b.size()) || (m < a.size());
  if (options.record_row_bounds) result.row_bounds.reserve(128);

  const RowContext ctx = detail::make_row_context(
      a, b, params, n, options.prune == PruneMode::kSequential);
  const std::uint32_t block_rows = std::max(1u, options.hirschberg_block_rows);

  LinearTracer tracer(ctx, block_rows, options.hirschberg_split_skew);

  // ---- Plan sweep: the normal forward DP, scores only. --------------------
  // Metrics (best, cells, bounds, widths) are identical to the full-trace
  // path because both run the same sweep_row over the same states.
  ScoreRow prev;
  ScoreRow cur;
  const std::uint32_t w0 = detail::init_row0(ctx, prev, nullptr);
  result.max_row_width = w0;
  result.cells += w0;
  if (options.record_row_bounds) result.row_bounds.push_back({0, w0});

  Checkpoint ck0;
  ck0.row = 0;
  ck0.best = BestCell{0, 0, 0};
  copy_row(prev, ck0.state);
  tracer.acct.ckpt_add(row_state_bytes(ck0.state));

  for (std::uint32_t row = 1; row <= m; ++row) {
    const RowOutcome o = detail::sweep_row(ctx, row, prev, cur, result.best, nullptr);
    result.cells += o.cells;
    if (!o.any_viable) break;
    std::swap(prev, cur);
    if (options.record_row_bounds) {
      result.row_bounds.push_back({o.first_viable, o.last_viable + 1});
    }
    result.max_row_width = std::max(result.max_row_width, o.last_viable + 1 - o.first_viable);
    result.rows_explored = row;
  }

  // ---- Traceback: checkpoint bisection + forward replay. ------------------
  if (options.want_traceback) {
    const std::uint32_t ti = options.trace_from_fixed ? options.trace_i : result.best.i;
    const std::uint32_t tj = options.trace_from_fixed ? options.trace_j : result.best.j;
    if (ti > result.rows_explored) {
      throw std::out_of_range("ydrop_linear_traceback: trace row beyond explored region");
    }
    tracer.walker.i = ti;
    tracer.walker.j = tj;
    tracer.walker.step_limit = 2 * (static_cast<std::uint64_t>(ti) + tj) + 1;
    tracer.walker.rops.reserve(static_cast<std::size_t>(ti) + tj);

    if (ti > 0) tracer.trace_segment(ck0, ti);
    // Row 0 codes are a pure function of the column; serve them without
    // materialization.
    tracer.walker.run_to_origin([&](std::uint32_t, std::uint32_t j) -> TraceCode {
      if (j >= w0) {
        throw std::runtime_error(
            "ydrop_linear_traceback: traceback escaped the explored region");
      }
      return detail::row0_code(j);
    });
    result.ops.assign(tracer.walker.rops.rbegin(), tracer.walker.rops.rend());
  }

  tracer.acct.ckpt_drop(row_state_bytes(ck0.state));

  if (stats != nullptr) {
    stats->plan_cells = result.cells;
    stats->replay_cells = tracer.acct.replay_cells;
    stats->trace_cells = tracer.acct.trace_cells;
    stats->peak_trace_bytes = tracer.acct.peak_trace;
    stats->peak_checkpoint_bytes = tracer.acct.peak_ckpt;
    stats->splits = tracer.acct.splits;
    stats->base_blocks = tracer.acct.base_blocks;
    stats->block_rows = block_rows;
  }
  return result;
}

}  // namespace fastz
