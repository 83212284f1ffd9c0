// 128-bit x86 row-precompute and row-scan instantiations (x86-64 baseline, no flags).
#if defined(__SSE2__)
#include "align/row_precompute_impl.hpp"

namespace fastz::detail {

void row_precompute_sse2(const Score* s_up, const Score* s_diag, const Score* gd_up,
                         const Score* prof, Score open_extend, Score extend_only,
                         std::size_t count, Score* d_val, Score* diag,
                         std::uint8_t* d_opened) {
  row_precompute_vec<simd::VecSse2, true>(s_up, s_diag, gd_up, prof, open_extend,
                                          extend_only, count, d_val, diag, d_opened);
}

void row_precompute_plain_sse2(const Score* s_up, const Score* s_diag, const Score* gd_up,
                               const Score* prof, Score open_extend, Score extend_only,
                               std::size_t count, Score* d_val, Score* diag,
                               std::uint8_t* d_opened) {
  row_precompute_vec<simd::VecSse2, false>(s_up, s_diag, gd_up, prof, open_extend,
                                           extend_only, count, d_val, diag, d_opened);
}

RowScanResult row_scan_sse2(const RowScanArgs& args) {
  return row_scan_vec<simd::VecSse2>(args);
}

}  // namespace fastz::detail
#endif
