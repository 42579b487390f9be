#pragma once

// Fixed-width vector types for the SIMD kernel families, each written once
// as a template on the lane type and built per ISA: Lanes4 over __m256d /
// __m256i (AVX2, simd_avx2.cpp) and Lanes8 over __m512d / __m512i
// (AVX-512F+DQ, simd_avx512.cpp).  Both expose the same static operations:
//   - doubles: zero, set1, load/store (whole, or the first n lanes), a
//     strided gather of the first n lanes, add, sub, mul, the fused
//     multiply-add fmadd, div, sqrt, max, abs, copysign, the lane selects
//     keepFirst and keepGreater, a max reduction, round-to-nearest and 2^n;
//   - 64-bit integers (the batched parity kernel): load, store, and, xor
//     and a logical right shift;
// and contractExp<S> below builds the kernel exp from them.  Every
// floating-point op is a single IEEE operation per lane (fmadd one
// correctly rounded fused multiply-add, as std::fma) and the ISA
// translation units are built with FP contraction off, so lane l of a
// templated body performs exactly the scalar reference's operation for
// element l, and no product is fused unless the body calls fmadd.  A new
// ISA costs one more lane type.
//
// Include only from the two ISA translation units; only the section
// matching the TU's -m flags compiles.  The lane types live in an anonymous
// namespace, so every template instantiated on them has internal linkage:
// an ISA object then defines no out-of-line copy of a function that another
// object of the library may define too (the linker could pick the
// ISA-encoded copy for scalar code).  For the same reason the family
// templates call no shared inline function, only lane ops and the helpers
// below.

#include <immintrin.h>

#include <utility>

#include "nn/kernels/kernels.hpp"

namespace nnqs::nn::kernels::detail {
namespace {

#if defined(__AVX2__) && defined(__FMA__)

struct Lanes4 {
  using V = __m256d;
  using I = __m256i;
  static constexpr Index kWidth = 4;
  static constexpr const char* kName = "avx2";

  static V zero() { return _mm256_setzero_pd(); }
  static V set1(Real x) { return _mm256_set1_pd(x); }
  static V load(const Real* p) { return _mm256_loadu_pd(p); }
  static void store(Real* p, V v) { _mm256_storeu_pd(p, v); }
  /// Lanes [0, n) from p, the rest +0.0 (none for n <= 0, all for n >= 4);
  /// nothing past p + n is touched.
  static V loadFirst(const Real* p, Index n) { return _mm256_maskload_pd(p, mask(n)); }
  /// Store lanes [0, n) only.
  static void storeFirst(Real* p, V v, Index n) { _mm256_maskstore_pd(p, mask(n), v); }
  /// Lane l < n from p[l * stride], the rest +0.0; nothing else is read.
  static V gatherFirst(const Real* p, Index stride, Index n) {
    const I idx = _mm256_setr_epi64x(0, stride, 2 * stride, 3 * stride);
    return _mm256_mask_i64gather_pd(zero(), p, idx, _mm256_castsi256_pd(mask(n)), 8);
  }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  /// a * b + c, rounded once.
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V sqrt(V v) { return _mm256_sqrt_pd(v); }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  static V abs(V v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }
  /// |mag| with the sign bit of sgn.
  static V copysign(V mag, V sgn) {
    const V sign = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign, mag), _mm256_and_pd(sign, sgn));
  }
  /// Lanes [0, n) of v, `fill` in the rest.
  static V keepFirst(V v, Index n, Real fill) {
    return _mm256_blendv_pd(_mm256_set1_pd(fill), v, _mm256_castsi256_pd(mask(n)));
  }
  /// v in the lanes where a > b (ordered), +0.0 elsewhere.
  static V keepGreater(V v, V a, V b) {
    return _mm256_and_pd(v, _mm256_cmp_pd(a, b, _CMP_GT_OQ));
  }
  /// The maximum lane; per pair the same result as std::max(lo, hi).
  static Real reduceMax(V v) {
    const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(m2, m2), m2));
  }
  static V roundNearest(V v) {
    return _mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// 2^n by exponent-field construction, n integral and in int32 range.
  static V pow2(V n) {
    const __m128i n32 = _mm256_cvtpd_epi32(n);
    return _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(n32), _mm256_set1_epi64x(1023)), 52));
  }

  static I loadBits(const void* p) { return _mm256_loadu_si256(static_cast<const I*>(p)); }
  static void storeBits(void* p, I v) { _mm256_storeu_si256(static_cast<I*>(p), v); }
  static I andBits(I a, I b) { return _mm256_and_si256(a, b); }
  static I xorBits(I a, I b) { return _mm256_xor_si256(a, b); }
  template <int kShift>
  static I shiftRight(I v) { return _mm256_srli_epi64(v, kShift); }

 private:
  static I mask(Index n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

struct Lanes8 {
  using V = __m512d;
  using I = __m512i;
  static constexpr Index kWidth = 8;
  static constexpr const char* kName = "avx512";

  static V zero() { return _mm512_setzero_pd(); }
  static V set1(Real x) { return _mm512_set1_pd(x); }
  static V load(const Real* p) { return _mm512_loadu_pd(p); }
  static void store(Real* p, V v) { _mm512_storeu_pd(p, v); }
  static V loadFirst(const Real* p, Index n) { return _mm512_maskz_loadu_pd(mask(n), p); }
  static void storeFirst(Real* p, V v, Index n) { _mm512_mask_storeu_pd(p, mask(n), v); }
  static V gatherFirst(const Real* p, Index stride, Index n) {
    const I idx = _mm512_mullo_epi64(_mm512_set1_epi64(stride),
                                     _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    return _mm512_mask_i64gather_pd(zero(), mask(n), idx, p, 8);
  }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V sqrt(V v) { return _mm512_sqrt_pd(v); }
  static V max(V a, V b) { return _mm512_max_pd(a, b); }
  static V abs(V v) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), v); }
  static V copysign(V mag, V sgn) {
    const V sign = _mm512_set1_pd(-0.0);
    return _mm512_or_pd(_mm512_andnot_pd(sign, mag), _mm512_and_pd(sign, sgn));
  }
  static V keepFirst(V v, Index n, Real fill) {
    return _mm512_mask_blend_pd(mask(n), _mm512_set1_pd(fill), v);
  }
  static V keepGreater(V v, V a, V b) {
    return _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(a, b, _CMP_GT_OQ), v);
  }
  static Real reduceMax(V v) { return _mm512_reduce_max_pd(v); }
  static V roundNearest(V v) {
    return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V pow2(V n) {
    const __m256i n32 = _mm512_cvtpd_epi32(n);
    return _mm512_castsi512_pd(_mm512_slli_epi64(
        _mm512_add_epi64(_mm512_cvtepi32_epi64(n32), _mm512_set1_epi64(1023)), 52));
  }

  static I loadBits(const void* p) { return _mm512_loadu_si512(p); }
  static void storeBits(void* p, I v) { _mm512_storeu_si512(p, v); }
  static I andBits(I a, I b) { return _mm512_and_si512(a, b); }
  static I xorBits(I a, I b) { return _mm512_xor_si512(a, b); }
  template <int kShift>
  static I shiftRight(I v) { return _mm512_srli_epi64(v, kShift); }

 private:
  static __mmask8 mask(Index n) {
    if (n <= 0) return 0;
    return n >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << n) - 1u);
  }
};

#endif  // __AVX512F__ && __AVX512DQ__

/// softmaxExp() on S::kWidth lanes: the scalar kernel exp's IEEE mul/add/
/// round sequence per lane (kernels.hpp).  Lanes with x <= kExpLowest (and
/// NaN lanes) give +0.0, as in the scalar exp.
template <class S>
inline typename S::V contractExp(typename S::V x) {
  using V = typename S::V;
  const V n = S::roundNearest(S::mul(x, S::set1(kExpLog2e)));
  const V r = S::sub(S::sub(x, S::mul(n, S::set1(kExpLn2Hi))),
                     S::mul(n, S::set1(kExpLn2Lo)));
  const V r2 = S::mul(r, r);
  const V r4 = S::mul(r2, r2);
  const V r8 = S::mul(r4, r4);
  const auto pair = [&r](Real c0, Real c1) {
    return S::add(S::set1(c0), S::mul(S::set1(c1), r));
  };
  const V g0 = S::add(pair(kExpC[0], kExpC[1]), S::mul(r2, pair(kExpC[2], kExpC[3])));
  const V g1 = S::add(pair(kExpC[4], kExpC[5]), S::mul(r2, pair(kExpC[6], kExpC[7])));
  const V g2 = S::add(pair(kExpC[8], kExpC[9]), S::mul(r2, pair(kExpC[10], kExpC[11])));
  const V g3 = pair(kExpC[12], kExpC[13]);
  const V p = S::add(S::add(g0, S::mul(r4, g1)), S::mul(r8, S::add(g2, S::mul(r4, g3))));
  return S::keepGreater(S::mul(p, S::pow2(n)), x, S::set1(kExpLowest));
}

/// A whole block of S::kWidth lanes.
template <class S>
struct WholeBlock {
  static typename S::V load(const Real* p) { return S::load(p); }
  static void store(Real* p, typename S::V v) { S::store(p, v); }
  static typename S::V keep(typename S::V v, Real /*fill*/ = 0.0) { return v; }
};

/// The final partial block: lanes [0, m) only.  Loads give +0.0 past m,
/// stores leave memory past m untouched, keep() sets the lanes past m to
/// `fill`.
template <class S>
struct TailBlock {
  Index m;
  typename S::V load(const Real* p) const { return S::loadFirst(p, m); }
  void store(Real* p, typename S::V v) const { S::storeFirst(p, v, m); }
  typename S::V keep(typename S::V v, Real fill = 0.0) const {
    return S::keepFirst(v, m, fill);
  }
};

/// body(i, block) for the lane blocks i = 0, W, 2W, ... covering [0, n):
/// whole blocks, then at most one TailBlock.
template <class S, class Body>
void forEachBlock(Index n, const Body& body) {
  Index i = 0;
  for (; i + S::kWidth <= n; i += S::kWidth) body(i, WholeBlock<S>{});
  if (i < n) body(i, TailBlock<S>{n - i});
}

/// The index k of forEachPart as a compile-time constant.  Not
/// std::integral_constant: at -O0 its conversion operator would be a weak
/// symbol both ISA objects define.
template <Index K>
struct PartIndex {
  constexpr operator Index() const { return K; }
};

/// f(k) for k = 0 .. N - 1, each k a PartIndex, so arrays of vectors
/// indexed by k stay in registers (a runtime-indexed loop, even one the
/// compiler unrolls, can leave them in memory, stored on every pass).
template <Index N, class F>
void forEachIndex(const F& f) {
  [&]<Index... k>(std::integer_sequence<Index, k...>) {
    (f(PartIndex<k>{}), ...);
  }(std::make_integer_sequence<Index, N>{});
}

/// f(k) for k = 0 .. 8 / W - 1 (forEachIndex).
template <class S, class F>
void forEachPart(const F& f) {
  forEachIndex<8 / S::kWidth>(f);
}

/// body(i, block, k) for the lane blocks of [0, n) in groups of 8 elements:
/// block i = 8g + kW is vector k of its group (k compile-time, as in
/// forEachPart).  Whole groups first, then the blocks of the last, partial
/// group as TailBlocks.
template <class S, class Body>
void forEachBlock8(Index n, const Body& body) {
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    forEachPart<S>([&](auto k) { body(i + k * S::kWidth, WholeBlock<S>{}, k); });
  if (i < n)
    forEachPart<S>([&](auto k) {
      const Index j = i + k * S::kWidth;
      if (j < n) body(j, TailBlock<S>{n - j}, k);
    });
}

/// The contract's eight strided partials held in 8 / W vectors: element i
/// of a row lands in partial i mod 8, lane i mod W of vector k = (i mod 8) / W
/// (forEachBlock8's k).
template <class S>
struct Partials8 {
  typename S::V v[8 / S::kWidth] = {};

  /// Add vector k of a group.
  template <class K>
  void add(K k, typename S::V x) {
    v[k] = S::add(v[k], x);
  }
  /// The fixed combine tree ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)), as
  /// treeSum8 (elementwise.hpp) and softmaxNormalize (kernels.hpp).
  Real sum() const {
    alignas(64) Real p[8];
    forEachPart<S>([&](auto k) { S::store(p + k * S::kWidth, v[k]); });
    return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  }
};

}  // namespace
}  // namespace nnqs::nn::kernels::detail
