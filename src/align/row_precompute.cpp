#include "align/row_precompute.hpp"

namespace fastz::detail {

namespace {

constexpr Score add_sat(Score base, Score delta) noexcept {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

}  // namespace

void row_precompute_scalar(const Score* s_up, const Score* s_diag, const Score* gd_up,
                           const Score* prof, Score open_extend, Score extend_only,
                           std::size_t count, Score* d_val, Score* diag,
                           std::uint8_t* d_opened) {
  for (std::size_t k = 0; k < count; ++k) {
    const Score d_ext = add_sat(gd_up[k], extend_only);
    const Score d_open = add_sat(s_up[k], open_extend);
    const bool opened = d_open >= d_ext;
    d_opened[k] = opened ? 1 : 0;
    d_val[k] = opened ? d_open : d_ext;
    diag[k] = add_sat(s_diag[k], prof[k]);
  }
}

void row_precompute_plain_scalar(const Score* s_up, const Score* s_diag,
                                 const Score* gd_up, const Score* prof,
                                 Score open_extend, Score extend_only, std::size_t count,
                                 Score* d_val, Score* diag, std::uint8_t* d_opened) {
  for (std::size_t k = 0; k < count; ++k) {
    const Score d_ext = gd_up[k] + extend_only;
    const Score d_open = s_up[k] + open_extend;
    const bool opened = d_open >= d_ext;
    d_opened[k] = opened ? 1 : 0;
    d_val[k] = opened ? d_open : d_ext;
    diag[k] = s_diag[k] + prof[k];
  }
}

#ifdef FASTZ_SIMD_HAS_SSE2
void row_precompute_sse2(const Score*, const Score*, const Score*, const Score*, Score,
                         Score, std::size_t, Score*, Score*, std::uint8_t*);
void row_precompute_plain_sse2(const Score*, const Score*, const Score*, const Score*,
                               Score, Score, std::size_t, Score*, Score*, std::uint8_t*);
RowScanResult row_scan_sse2(const RowScanArgs&);
#endif
#ifdef FASTZ_SIMD_HAS_AVX2
void row_precompute_avx2(const Score*, const Score*, const Score*, const Score*, Score,
                         Score, std::size_t, Score*, Score*, std::uint8_t*);
void row_precompute_plain_avx2(const Score*, const Score*, const Score*, const Score*,
                               Score, Score, std::size_t, Score*, Score*, std::uint8_t*);
RowScanResult row_scan_avx2(const RowScanArgs&);
#endif
#ifdef FASTZ_SIMD_HAS_NEON
void row_precompute_neon(const Score*, const Score*, const Score*, const Score*, Score,
                         Score, std::size_t, Score*, Score*, std::uint8_t*);
void row_precompute_plain_neon(const Score*, const Score*, const Score*, const Score*,
                               Score, Score, std::size_t, Score*, Score*, std::uint8_t*);
RowScanResult row_scan_neon(const RowScanArgs&);
#endif

RowPrecomputeFn row_precompute_fn(simd::Isa isa) noexcept {
  switch (isa) {
#ifdef FASTZ_SIMD_HAS_SSE2
    case simd::Isa::kSse2:
      return &row_precompute_sse2;
#endif
#ifdef FASTZ_SIMD_HAS_AVX2
    case simd::Isa::kAvx2:
      return &row_precompute_avx2;
#endif
#ifdef FASTZ_SIMD_HAS_NEON
    case simd::Isa::kNeon:
      return &row_precompute_neon;
#endif
    default:
      return nullptr;
  }
}

RowPrecomputeFn row_precompute_plain_fn(simd::Isa isa) noexcept {
  switch (isa) {
#ifdef FASTZ_SIMD_HAS_SSE2
    case simd::Isa::kSse2:
      return &row_precompute_plain_sse2;
#endif
#ifdef FASTZ_SIMD_HAS_AVX2
    case simd::Isa::kAvx2:
      return &row_precompute_plain_avx2;
#endif
#ifdef FASTZ_SIMD_HAS_NEON
    case simd::Isa::kNeon:
      return &row_precompute_plain_neon;
#endif
    default:
      return nullptr;
  }
}

RowScanFn row_scan_fn(simd::Isa isa) noexcept {
  switch (isa) {
#ifdef FASTZ_SIMD_HAS_SSE2
    case simd::Isa::kSse2:
      return &row_scan_sse2;
#endif
#ifdef FASTZ_SIMD_HAS_AVX2
    case simd::Isa::kAvx2:
      return &row_scan_avx2;
#endif
#ifdef FASTZ_SIMD_HAS_NEON
    case simd::Isa::kNeon:
      return &row_scan_neon;
#endif
    default:
      return nullptr;
  }
}

}  // namespace fastz::detail
