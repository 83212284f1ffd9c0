// 256-bit x86 row-precompute and row-scan instantiations (compiled with -mavx2, see
// src/align/CMakeLists.txt; reached only when the CPU reports AVX2).
#if defined(__AVX2__)
#include "align/row_precompute_impl.hpp"

namespace fastz::detail {

void row_precompute_avx2(const Score* s_up, const Score* s_diag, const Score* gd_up,
                         const Score* prof, Score open_extend, Score extend_only,
                         std::size_t count, Score* d_val, Score* diag,
                         std::uint8_t* d_opened) {
  row_precompute_vec<simd::VecAvx2, true>(s_up, s_diag, gd_up, prof, open_extend,
                                          extend_only, count, d_val, diag, d_opened);
}

void row_precompute_plain_avx2(const Score* s_up, const Score* s_diag, const Score* gd_up,
                               const Score* prof, Score open_extend, Score extend_only,
                               std::size_t count, Score* d_val, Score* diag,
                               std::uint8_t* d_opened) {
  row_precompute_vec<simd::VecAvx2, false>(s_up, s_diag, gd_up, prof, open_extend,
                                           extend_only, count, d_val, diag, d_opened);
}

RowScanResult row_scan_avx2(const RowScanArgs& args) {
  return row_scan_vec<simd::VecAvx2>(args);
}

}  // namespace fastz::detail
#endif
