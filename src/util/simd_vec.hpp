// Minimal i32 vector wrappers behind the portable-SIMD kernels.
//
// Each struct wraps one native register width with the operations the DP
// recurrences need (add / max / compares / blend / movemask / byte
// widening, and the lane shift + last-lane broadcast of a prefix scan).
// The wrappers are defined only when the including translation
// unit is compiled for the matching ISA (`__SSE2__` / `__AVX2__` /
// `__ARM_NEON`): the per-ISA kernel TUs get their flags from CMake
// (e.g. `-mavx2` on strip_kernel_avx2.cpp), so a template kernel
// instantiated on VecAvx2 never leaks AVX2 instructions into baseline code.
//
// Masks are ordinary vectors holding all-ones (-1) or all-zeros per lane,
// the native compare result representation on every target.
#pragma once

#include <cstdint>
#include <cstring>

#include "score/score_params.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace fastz::simd {

#if defined(__SSE2__)

struct VecSse2 {
  static constexpr int kLanes = 4;
  __m128i v;

  static VecSse2 load(const Score* p) noexcept {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(Score* p) const noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static VecSse2 broadcast(Score x) noexcept { return {_mm_set1_epi32(x)}; }
  // Widens 4 sequence codes (bytes) to i32 lanes.
  static VecSse2 load_u8(const std::uint8_t* p) noexcept {
    std::uint32_t bits;
    std::memcpy(&bits, p, sizeof(bits));
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(bits));
    const __m128i zero = _mm_setzero_si128();
    return {_mm_unpacklo_epi16(_mm_unpacklo_epi8(bytes, zero), zero)};
  }

  friend VecSse2 operator+(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_add_epi32(a.v, b.v)};
  }
  friend VecSse2 operator&(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_and_si128(a.v, b.v)};
  }
  friend VecSse2 operator|(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_si128(a.v, b.v)};
  }
  static VecSse2 max(VecSse2 a, VecSse2 b) noexcept {
    // SSE2 lacks pmaxsd; synthesize from the compare we need anyway.
    const __m128i m = _mm_cmpgt_epi32(a.v, b.v);
    return {_mm_or_si128(_mm_and_si128(m, a.v), _mm_andnot_si128(m, b.v))};
  }
  static VecSse2 cmpgt(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_cmpgt_epi32(a.v, b.v)};
  }
  static VecSse2 cmpeq(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_cmpeq_epi32(a.v, b.v)};
  }
  static VecSse2 cmpge(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_si128(_mm_cmpgt_epi32(a.v, b.v), _mm_cmpeq_epi32(a.v, b.v))};
  }
  // x & ~mask.
  static VecSse2 andnot(VecSse2 mask, VecSse2 x) noexcept {
    return {_mm_andnot_si128(mask.v, x.v)};
  }
  // mask ? a : b, lane-wise (mask lanes all-ones / all-zeros).
  static VecSse2 blend(VecSse2 mask, VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_si128(_mm_and_si128(mask.v, a.v), _mm_andnot_si128(mask.v, b.v))};
  }
  // One bit per lane (lane 0 = bit 0).
  static int movemask(VecSse2 mask) noexcept {
    return _mm_movemask_ps(_mm_castsi128_ps(mask.v));
  }
  // Lane l takes lane l - K; the K lowest lanes take `fill`, which must be a
  // broadcast (every lane equal).
  template <int K>
  static VecSse2 shift_up(VecSse2 v, VecSse2 fill) noexcept {
    static_assert(K > 0 && K < kLanes);
    return {_mm_or_si128(_mm_slli_si128(v.v, 4 * K), _mm_srli_si128(fill.v, 16 - 4 * K))};
  }
  // Every lane takes the highest lane.
  static VecSse2 broadcast_last(VecSse2 v) noexcept {
    return {_mm_shuffle_epi32(v.v, 0xFF)};
  }
};

#endif  // __SSE2__

#if defined(__AVX2__)

struct VecAvx2 {
  static constexpr int kLanes = 8;
  __m256i v;

  static VecAvx2 load(const Score* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(Score* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static VecAvx2 broadcast(Score x) noexcept { return {_mm256_set1_epi32(x)}; }
  static VecAvx2 load_u8(const std::uint8_t* p) noexcept {
    return {_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)))};
  }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_add_epi32(a.v, b.v)};
  }
  friend VecAvx2 operator&(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend VecAvx2 operator|(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
  }
  static VecAvx2 max(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_max_epi32(a.v, b.v)};
  }
  static VecAvx2 cmpgt(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
  }
  static VecAvx2 cmpeq(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_cmpeq_epi32(a.v, b.v)};
  }
  static VecAvx2 cmpge(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_or_si256(_mm256_cmpgt_epi32(a.v, b.v),
                            _mm256_cmpeq_epi32(a.v, b.v))};
  }
  // x & ~mask.
  static VecAvx2 andnot(VecAvx2 mask, VecAvx2 x) noexcept {
    return {_mm256_andnot_si256(mask.v, x.v)};
  }
  static VecAvx2 blend(VecAvx2 mask, VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
  }
  static int movemask(VecAvx2 mask) noexcept {
    return _mm256_movemask_ps(_mm256_castsi256_ps(mask.v));
  }
  template <int K>
  static VecAvx2 shift_up(VecAvx2 v, VecAvx2 fill) noexcept {
    static_assert(K > 0 && K < kLanes);
    // below = [fill.lo128 | v.lo128]: what slides into each 128-bit half of
    // the result from underneath (alignr works within 128-bit halves).
    const __m256i below = _mm256_permute2x128_si256(v.v, fill.v, 0x02);
    if constexpr (K == 4) {
      return {below};
    } else if constexpr (K < 4) {
      return {_mm256_alignr_epi8(v.v, below, 16 - 4 * K)};
    } else {
      return {_mm256_alignr_epi8(below, fill.v, 32 - 4 * K)};
    }
  }
  static VecAvx2 broadcast_last(VecAvx2 v) noexcept {
    return {_mm256_permutevar8x32_epi32(v.v, _mm256_set1_epi32(7))};
  }
};

#endif  // __AVX2__

#if defined(__ARM_NEON)

struct VecNeon {
  static constexpr int kLanes = 4;
  int32x4_t v;

  static VecNeon load(const Score* p) noexcept { return {vld1q_s32(p)}; }
  void store(Score* p) const noexcept { vst1q_s32(p, v); }
  static VecNeon broadcast(Score x) noexcept { return {vdupq_n_s32(x)}; }
  static VecNeon load_u8(const std::uint8_t* p) noexcept {
    std::uint32_t bits;
    std::memcpy(&bits, p, sizeof(bits));
    const uint8x8_t bytes = vreinterpret_u8_u32(vdup_n_u32(bits));
    const uint16x4_t half = vget_low_u16(vmovl_u8(bytes));
    return {vreinterpretq_s32_u32(vmovl_u16(half))};
  }

  friend VecNeon operator+(VecNeon a, VecNeon b) noexcept {
    return {vaddq_s32(a.v, b.v)};
  }
  friend VecNeon operator&(VecNeon a, VecNeon b) noexcept {
    return {vandq_s32(a.v, b.v)};
  }
  friend VecNeon operator|(VecNeon a, VecNeon b) noexcept {
    return {vorrq_s32(a.v, b.v)};
  }
  static VecNeon max(VecNeon a, VecNeon b) noexcept { return {vmaxq_s32(a.v, b.v)}; }
  static VecNeon cmpgt(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_s32_u32(vcgtq_s32(a.v, b.v))};
  }
  static VecNeon cmpeq(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_s32_u32(vceqq_s32(a.v, b.v))};
  }
  static VecNeon cmpge(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_s32_u32(vcgeq_s32(a.v, b.v))};
  }
  // x & ~mask.
  static VecNeon andnot(VecNeon mask, VecNeon x) noexcept {
    return {vbicq_s32(x.v, mask.v)};
  }
  static VecNeon blend(VecNeon mask, VecNeon a, VecNeon b) noexcept {
    return {vbslq_s32(vreinterpretq_u32_s32(mask.v), a.v, b.v)};
  }
  static int movemask(VecNeon mask) noexcept {
    const uint32x4_t bits = vshrq_n_u32(vreinterpretq_u32_s32(mask.v), 31);
    const uint32x4_t weights = {1u, 2u, 4u, 8u};
#if defined(__aarch64__)
    return static_cast<int>(vaddvq_u32(vmulq_u32(bits, weights)));
#else
    const uint32x4_t weighted = vmulq_u32(bits, weights);
    const uint32x2_t sum =
        vadd_u32(vget_low_u32(weighted), vget_high_u32(weighted));
    return static_cast<int>(vget_lane_u32(vpadd_u32(sum, sum), 0));
#endif
  }
  template <int K>
  static VecNeon shift_up(VecNeon v, VecNeon fill) noexcept {
    static_assert(K > 0 && K < kLanes);
    // vext(a, b, n) = lanes n.. of the concatenation a:b.
    return {vextq_s32(fill.v, v.v, 4 - K)};
  }
  static VecNeon broadcast_last(VecNeon v) noexcept {
    return {vdupq_n_s32(vgetq_lane_s32(v.v, 3))};
  }
};

#endif  // __ARM_NEON

// Saturating score add with kNegativeInfinity absorbing — the vector form
// of the scalar `add_score(base, delta)` both DP cores use. `neg_inf` is
// the pre-broadcast kNegativeInfinity vector.
template <class V>
inline V add_score_vec(V base, V delta, V neg_inf) noexcept {
  return V::blend(V::cmpgt(base, neg_inf), base + delta, neg_inf);
}

}  // namespace fastz::simd
