#pragma once

// Thin fixed-width vector types for kernel bodies written once and compiled
// per ISA: Lanes4 over __m256d (AVX2) and Lanes8 over __m512d (AVX-512F).
// Each exposes the same static operations — load/store (whole or the first
// n lanes), set1, add, sub, mul, max, lane select, a max reduction and the
// contract exp (simd_exp.hpp) — so a template on the lane type produces one
// instruction sequence per ISA from one source.  Every op is a single IEEE
// operation per lane and the including translation units are built with FP
// contraction off, so lane l of a templated body performs exactly the scalar
// reference's operation for element l.
//
// Only the section matching the including TU's -m flags compiles.  Use each
// type from one ISA's translation unit only (Lanes4 from the AVX2 TUs,
// Lanes8 from the AVX-512 TUs): an inline function emitted out of line under
// two different -m flags would leave the linker free to pick either copy.

#include <algorithm>

#include "nn/kernels/simd_exp.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace nnqs::nn::kernels::detail {

struct Lanes4 {
  using V = __m256d;
  static constexpr Index kWidth = 4;

  static V zero() { return _mm256_setzero_pd(); }
  static V set1(Real x) { return _mm256_set1_pd(x); }
  static V load(const Real* p) { return _mm256_loadu_pd(p); }
  static void store(Real* p, V v) { _mm256_storeu_pd(p, v); }
  /// Lanes [0, n) from p, the rest +0.0; nothing past p + n is touched.
  static V loadFirst(const Real* p, Index n) { return _mm256_maskload_pd(p, mask(n)); }
  /// Store lanes [0, n) only.
  static void storeFirst(Real* p, V v, Index n) { _mm256_maskstore_pd(p, mask(n), v); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  /// Lanes [0, n) of v, `fill` in the rest.
  static V keepFirst(V v, Index n, Real fill) {
    return _mm256_blendv_pd(_mm256_set1_pd(fill), v, _mm256_castsi256_pd(mask(n)));
  }
  static Real reduceMax(V v) {
    const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return std::max(_mm_cvtsd_f64(m2), _mm_cvtsd_f64(_mm_unpackhi_pd(m2, m2)));
  }
  static V exp(V x) { return exp4(x); }

 private:
  static __m256i mask(Index n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

}  // namespace nnqs::nn::kernels::detail

#endif  // __AVX2__

#if defined(__AVX512F__)

namespace nnqs::nn::kernels::detail {

struct Lanes8 {
  using V = __m512d;
  static constexpr Index kWidth = 8;

  static V zero() { return _mm512_setzero_pd(); }
  static V set1(Real x) { return _mm512_set1_pd(x); }
  static V load(const Real* p) { return _mm512_loadu_pd(p); }
  static void store(Real* p, V v) { _mm512_storeu_pd(p, v); }
  static V loadFirst(const Real* p, Index n) { return _mm512_maskz_loadu_pd(mask(n), p); }
  static void storeFirst(Real* p, V v, Index n) { _mm512_mask_storeu_pd(p, mask(n), v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V max(V a, V b) { return _mm512_max_pd(a, b); }
  static V keepFirst(V v, Index n, Real fill) {
    return _mm512_mask_blend_pd(mask(n), _mm512_set1_pd(fill), v);
  }
  static Real reduceMax(V v) { return _mm512_reduce_max_pd(v); }
  static V exp(V x) { return exp8(x); }

 private:
  static __mmask8 mask(Index n) {
    if (n <= 0) return 0;
    return n >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << n) - 1u);
  }
};

}  // namespace nnqs::nn::kernels::detail

#endif  // __AVX512F__
