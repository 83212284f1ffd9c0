// Template bodies of the row-precompute primitives and the row scan,
// instantiated once per ISA translation unit (row_precompute_sse2/avx2/
// neon.cpp) — never include from baseline code.
#pragma once

#include <bit>

#include "align/row_precompute.hpp"
#include "align/traceback.hpp"
#include "util/simd_vec.hpp"

namespace fastz::detail {

// Saturate=true: the y-drop core's add_score (-inf absorbing).
// Saturate=false: the Gotoh reference's plain integer add.
template <class V, bool Saturate>
void row_precompute_vec(const Score* s_up, const Score* s_diag, const Score* gd_up,
                        const Score* prof, Score open_extend, Score extend_only,
                        std::size_t count, Score* d_val, Score* diag,
                        std::uint8_t* d_opened) {
  constexpr std::size_t W = V::kLanes;
  const V vneg = V::broadcast(kNegativeInfinity);
  const V voe = V::broadcast(open_extend);
  const V vext = V::broadcast(extend_only);

  const auto add = [&](V base, V delta) {
    if constexpr (Saturate) {
      return simd::add_score_vec(base, delta, vneg);
    } else {
      return base + delta;
    }
  };

  std::size_t k = 0;
  for (; k + W <= count; k += W) {
    const V up = V::load(s_up + k);
    const V dup = V::load(gd_up + k);
    const V d_ext = add(dup, vext);
    const V d_open = add(up, voe);
    const V opened = V::cmpge(d_open, d_ext);
    V::blend(opened, d_open, d_ext).store(d_val + k);
    add(V::load(s_diag + k), V::load(prof + k)).store(diag + k);

    alignas(64) Score opened_lanes[W];
    opened.store(opened_lanes);
    for (std::size_t q = 0; q < W; ++q) {
      d_opened[k + q] = static_cast<std::uint8_t>(opened_lanes[q] & 1);
    }
  }
  if (k < count) {
    auto tail = Saturate ? &row_precompute_scalar : &row_precompute_plain_scalar;
    tail(s_up + k, s_diag + k, gd_up + k, prof + k, open_extend, extend_only,
         count - k, d_val + k, diag + k, d_opened + k);
  }
}

// Row scan (see RowScanArgs). Per column q of the span, with
// e = extend_only and oe = open_extend:
//
//   D[q] = max(add(gd_up[q], e), add(s_up[q], oe))      (phase A's D)
//   H[q] = max(add(s_diag[q], prof[q]), D[q])
//   I[q] = max(g[q], I[q-1] + e),   g[q] = H[q-1] + oe,  g[0] from left_s
//   S[q] = max(H[q], I[q])
//
// I is a max-plus prefix scan, I[q] = max_{p<=q} g[p] + (q-p)e: within a
// vector, log2(lanes) shift-and-max steps; across vectors, the previous
// vector's last I broadcast and decayed by (lane+1)e. The open term uses H,
// not S: opening from I gives I + oe <= I + e, since gap_open <= 0.
//
// Why it is exact. The scalar sweep resets S and I to -inf at every pruned
// cell; the scan does not, so its values are never below the scalar ones.
// Let T be the viability threshold (S > floor). If the scan's I[r] >= T,
// the chain it came from starts at some g[p] >= I[r] >= T and, because
// every gap penalty is <= 0 (ScoreParams::validate), passes every column in
// [p, r) with a value >= I[r] >= T. By induction over the columns, those
// cells (and H[p-1] >= g[p] - oe >= T) are viable in the scalar sweep too,
// so the chain is unbroken there and the scalar I[r] equals the scan's.
// Hence any I that differs stays below T, where it can neither make a cell
// viable nor win S = max(H, I) of a viable cell: viability, S, D, the best
// cell, the row bounds and the cell count are identical to the scalar
// sweep. Only I itself may differ, and the next row reads S and D alone.
//
// Traced rows. With `codes` set, each column also gets the scalar row's
// packed code: the S source from diag/I/D compares in the scalar tie order
// (diag > I > D), d_opened = add(s_up, oe) >= add(gd_up, e) from the
// previous row, and i_opened = add(S[q-1], oe) >= add(I[q-1], e) from the
// shifted S and I (S, not H: with gap_open == 0 a tie between opening from
// an I-won S and extending I must read as opened, as in the scalar row).
// The codes equal the scalar codes wherever a traceback walk reads them.
// A walk reads only viable cells: an S-state cell stores its S, which a
// pruned cell holds as -inf; an I- or D-state cell satisfies S >= I >= T
// or S >= D >= T, since a gap chain only decreases on its way to a viable
// exit (and T never falls from one row to the next). At a viable cell the
// S source and d_opened are exact: D and diag come from the identical
// previous row, and an I that differs is below T <= max(diag, D), so it
// wins in neither sweep. The i_opened bit is read only in the I state, so
// only where I[q] >= T, and there it is exact: if I[q] = I[q-1] + e, then
// I[q-1] >= T and S[q-1] >= T are exact; otherwise I[q] = S[q-1] + oe puts
// S[q-1] above T, and both sweeps' I[q-1] + e fall short of it. Where
// I[q] < T the bit may differ — the scalar sweep opened from a reset chain
// — and no walk reads it. Pruned cells' codes are unspecified.
//
// Values below -inf never wrap: the carried I is clamped at -inf, so a
// long pruned run cannot drift, and a clamped value is still below T.
template <class V, bool kTraced>
RowScanResult row_scan_span(const RowScanArgs& a) {
  constexpr int W = V::kLanes;
  // Locals, so the stores through s_out / d_out cannot alias the arguments.
  const Score* const s_up = a.s_up;
  const Score* const s_diag = a.s_diag;
  const Score* const gd_up = a.gd_up;
  const Score* const prof = a.prof;
  Score* const s_out = a.s_out;
  Score* const d_out = a.d_out;
  std::uint8_t* const codes = a.codes;
  const std::size_t count = a.count;
  const Score e = a.extend_only;

  const V vneg = V::broadcast(kNegativeInfinity);
  const V voe = V::broadcast(a.open_extend);
  const V vext = V::broadcast(e);
  const V vext2 = V::broadcast(2 * e);
  const V vext4 = V::broadcast(4 * e);
  const V vfloor = V::broadcast(a.floor);
  alignas(64) Score lanes[W];
  for (int l = 0; l < W; ++l) lanes[l] = static_cast<Score>(l + 1) * e;
  const V vdecay = V::load(lanes);  // (lane + 1) * e: carried-I decay
  for (int l = 0; l < W; ++l) lanes[l] = l;
  const V vlane = V::load(lanes);
  // Code bits (traceback.hpp): S source I = 1, D = 2; i_opened 4, d_opened 8.
  const V vsrc_i = V::broadcast(kTraceSrcI);
  const V vsrc_d = V::broadcast(kTraceSrcD);
  const V vi_open = V::broadcast(make_trace(0, true, false));
  const V vd_open = V::broadcast(make_trace(0, false, true));

  // Max-plus prefix over the lanes of g: log2(W) shift-and-max steps.
  const auto lane_scan = [&](V x) {
    x = V::max(x, V::template shift_up<1>(x, vneg) + vext);
    if constexpr (W > 2) x = V::max(x, V::template shift_up<2>(x, vneg) + vext2);
    if constexpr (W > 4) x = V::max(x, V::template shift_up<4>(x, vneg) + vext4);
    return x;
  };

  V h_carry = V::broadcast(a.left_s);  // stands in for H one column left
  V s_carry = h_carry;                 // S one column left (traced rows)
  V i_carry = vneg;
  V row_max = vneg;
  V i_vec = vneg;
  const auto step = [&](std::size_t k, V live) {
    const V d_ext = simd::add_score_vec(V::load(gd_up + k), vext, vneg);
    const V d_open = simd::add_score_vec(V::load(s_up + k), voe, vneg);
    const V d = V::max(d_ext, d_open);
    const V diag = simd::add_score_vec(V::load(s_diag + k), V::load(prof + k), vneg);
    const V h = V::max(diag, d);
    const V g = V::template shift_up<1>(h, h_carry) + voe;
    const V i_left = i_carry;
    i_vec = V::max(lane_scan(g), i_carry + vdecay);
    i_carry = V::max(V::broadcast_last(i_vec), vneg);
    h_carry = V::broadcast_last(h);

    const V s = V::max(h, i_vec);
    if constexpr (kTraced) {
      const V i_opened = V::cmpge(
          simd::add_score_vec(V::template shift_up<1>(s, s_carry), voe, vneg),
          simd::add_score_vec(V::template shift_up<1>(i_vec, i_left), vext, vneg));
      s_carry = V::broadcast_last(s);
      const V src_i = V::cmpgt(i_vec, diag);
      const V src_d = V::cmpgt(d, V::max(diag, i_vec));
      const V code = V::blend(src_d, vsrc_d, src_i & vsrc_i) | (i_opened & vi_open) |
                     (V::cmpge(d_open, d_ext) & vd_open);
      code.store_u8(codes + k);
    }
    const V viable = V::cmpgt(s, vfloor) & live;
    const V s_masked = V::blend(viable, s, vneg);
    s_masked.store(s_out + k);
    V::blend(viable, d, vneg).store(d_out + k);
    row_max = V::max(row_max, s_masked);
  };

  const V all = V::cmpeq(vneg, vneg);
  std::size_t k = 0;
  for (; k + W <= count; k += W) step(k, all);
  if (k < count) step(k, V::cmpgt(V::broadcast(static_cast<Score>(count - k)), vlane));
  const std::size_t end = k < count ? k + W : k;  // s_out is written up to here

  // The masked S planes answer everything else: a cell is viable iff its
  // stored S > -inf. Each search stops at its first hit.
  RowScanResult r;
  r.first = count;
  alignas(64) Score tmp[W];
  row_max.store(tmp);
  for (int l = 0; l < W; ++l) r.best = std::max(r.best, tmp[l]);
  if (r.best == kNegativeInfinity) return r;

  const auto find = [&](std::size_t q, V target, bool eq) {
    const V x = V::load(s_out + q);
    return static_cast<unsigned>(V::movemask(eq ? V::cmpeq(x, target) : V::cmpgt(x, target)));
  };
  for (std::size_t q = 0;; q += W) {
    if (const unsigned hit = find(q, vneg, false)) {
      r.first = q + static_cast<std::size_t>(std::countr_zero(hit));
      break;
    }
  }
  for (std::size_t q = end - W;; q -= W) {
    if (const unsigned hit = find(q, vneg, false)) {
      r.last = q + static_cast<std::size_t>(31 - std::countl_zero(hit));
      break;
    }
  }
  const V target = V::broadcast(r.best);
  for (std::size_t q = r.first - r.first % W;; q += W) {
    if (const unsigned hit = find(q, target, true)) {
      r.best_at = q + static_cast<std::size_t>(std::countr_zero(hit));
      break;
    }
  }
  if (s_out[count - 1] > kNegativeInfinity) {
    i_vec.store(tmp);
    r.exit_i = tmp[(count - 1) % W];
  }
  return r;
}

// The row scan for one ISA: traced when the caller passes a code buffer.
template <class V>
RowScanResult row_scan_vec(const RowScanArgs& a) {
  return a.codes != nullptr ? row_scan_span<V, true>(a) : row_scan_span<V, false>(a);
}

}  // namespace fastz::detail
