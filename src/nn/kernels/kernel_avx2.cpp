// AVX2-vectorized decode-attention row kernel.
//
// Built with -mavx2 -ffp-contract=off (contraction off so no mul/add pair is
// fused into an FMA the scalar reference does not perform).  Nothing here
// executes unless the cpuid probe in avx2Row() reports AVX2 support, so the
// library stays runnable on older x86 parts and non-x86 builds
// (NNQS_ENABLE_AVX2 off compiles this file to just the nullptr fallback).
//
// Bit-identity with the scalar reference (contract in attn_row.hpp):
// vectorization is only across *independent* outputs —
//   - scores: lanes are 4 distinct key positions; each lane's dot product
//     accumulates q_t * k_tj in the same ascending-t order as the scalar
//     kernel (t outermost, feeding 8 independent accumulator vectors = 32
//     key positions per block, which also hides the add latency the scalar
//     kernel's single running sum is bound by);
//   - max is exact, so the vector-max reduction order is immaterial;
//   - softmax exp: exp4() performs softmaxExp()'s exact operation sequence
//     per lane; the denominator's 8 strided partials are exactly the two
//     4-lane accumulators, combined by the contract's fixed tree;
//   - context: lanes are 4 distinct model features held in register
//     accumulators; the j-sum stays sequential, exactly as in the scalar
//     kernel.
//
// The training-attention kernels are the shared lane-templated body
// (attn_train_simd.hpp) instantiated on 4-lane vectors.

#include "nn/kernels/attn_row.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "nn/kernels/attn_train_simd.hpp"
#include "nn/kernels/simd_exp.hpp"  // exp4: softmaxExp per lane

namespace nnqs::nn::kernels::detail {

namespace {

void avx2Head(const DecodeAttnArgs& a, Index b, Index h, Real* scores) {
  const Index slot = a.slots[b];
  const Real* q = a.q + b * a.qStride + h * a.headDim;
  const Real* kHead = a.k + (slot * a.dModel + h * a.headDim) * a.maxLen;
  const Real* vHead = a.v + slot * a.maxLen * a.dModel + h * a.headDim;
  Real* ctx = a.ctx + b * a.dModel + h * a.headDim;
  const Index n = a.pos + 1;
  const Index maxLen = a.maxLen;
  const __m256d scale4 = _mm256_set1_pd(a.scale);

  // 1. Scores: key positions fill the lanes.
  Index j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256d acc[8];
    for (int i = 0; i < 8; ++i) acc[i] = _mm256_setzero_pd();
    for (Index t = 0; t < a.headDim; ++t) {
      const __m256d qt = _mm256_set1_pd(q[t]);
      const Real* kr = kHead + t * maxLen + j;
      for (int i = 0; i < 8; ++i)
        acc[i] = _mm256_add_pd(acc[i], _mm256_mul_pd(qt, _mm256_loadu_pd(kr + 4 * i)));
    }
    for (int i = 0; i < 8; ++i)
      _mm256_storeu_pd(scores + j + 4 * i, _mm256_mul_pd(acc[i], scale4));
  }
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (Index t = 0; t < a.headDim; ++t)
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(q[t]),
                                             _mm256_loadu_pd(kHead + t * maxLen + j)));
    _mm256_storeu_pd(scores + j, _mm256_mul_pd(acc, scale4));
  }
  for (; j < n; ++j) {
    Real s = 0;
    for (Index t = 0; t < a.headDim; ++t) s += q[t] * kHead[t * maxLen + j];
    scores[j] = s * a.scale;
  }

  // 2. Max (exact, so the vector reduction order is immaterial).
  __m256d m4 = _mm256_set1_pd(-1e300);
  for (j = 0; j + 4 <= n; j += 4) m4 = _mm256_max_pd(m4, _mm256_loadu_pd(scores + j));
  const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(m4), _mm256_extractf128_pd(m4, 1));
  Real mx = std::max(_mm_cvtsd_f64(m2), _mm_cvtsd_f64(_mm_unpackhi_pd(m2, m2)));
  for (; j < n; ++j) mx = std::max(mx, scores[j]);

  // 3+4. Exp with the fused 8-partial denominator: the two 4-lane
  // accumulators are the contract's partials p0..p3 / p4..p7; the tail
  // elements land in their j mod 8 buckets before the fixed tree sum.
  const Index blocks = n & ~Index{7};
  const __m256d mx4 = _mm256_set1_pd(mx);
  __m256d d0 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
  for (j = 0; j < blocks; j += 8) {
    const __m256d e0 = exp4(_mm256_sub_pd(_mm256_loadu_pd(scores + j), mx4));
    const __m256d e1 = exp4(_mm256_sub_pd(_mm256_loadu_pd(scores + j + 4), mx4));
    _mm256_storeu_pd(scores + j, e0);
    _mm256_storeu_pd(scores + j + 4, e1);
    d0 = _mm256_add_pd(d0, e0);
    d1 = _mm256_add_pd(d1, e1);
  }
  alignas(32) Real part[8];
  _mm256_store_pd(part, d0);
  _mm256_store_pd(part + 4, d1);
  for (j = blocks; j < n; ++j) {
    scores[j] = softmaxExp(scores[j] - mx);
    part[j & 7] += scores[j];
  }
  const Real denom = ((part[0] + part[1]) + (part[2] + part[3])) +
                     ((part[4] + part[5]) + (part[6] + part[7]));
  const Real rinv = 1.0 / denom;

  // 6. Context: feature chunks of up to 16 stay in register accumulators
  // across the whole (sequential) j-sum, then one rinv scale.
  Index t0 = 0;
  for (; t0 + 16 <= a.headDim; t0 += 16) {
    __m256d c0 = _mm256_loadu_pd(ctx + t0), c1 = _mm256_loadu_pd(ctx + t0 + 4);
    __m256d c2 = _mm256_loadu_pd(ctx + t0 + 8), c3 = _mm256_loadu_pd(ctx + t0 + 12);
    for (j = 0; j < n; ++j) {
      const Real* vj = vHead + j * a.dModel + t0;
      const __m256d e4 = _mm256_set1_pd(scores[j]);
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(e4, _mm256_loadu_pd(vj)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(e4, _mm256_loadu_pd(vj + 4)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(e4, _mm256_loadu_pd(vj + 8)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(e4, _mm256_loadu_pd(vj + 12)));
    }
    const __m256d ri4 = _mm256_set1_pd(rinv);
    _mm256_storeu_pd(ctx + t0, _mm256_mul_pd(c0, ri4));
    _mm256_storeu_pd(ctx + t0 + 4, _mm256_mul_pd(c1, ri4));
    _mm256_storeu_pd(ctx + t0 + 8, _mm256_mul_pd(c2, ri4));
    _mm256_storeu_pd(ctx + t0 + 12, _mm256_mul_pd(c3, ri4));
  }
  for (; t0 + 4 <= a.headDim; t0 += 4) {
    __m256d c0 = _mm256_loadu_pd(ctx + t0);
    for (j = 0; j < n; ++j)
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(_mm256_set1_pd(scores[j]),
                                           _mm256_loadu_pd(vHead + j * a.dModel + t0)));
    _mm256_storeu_pd(ctx + t0, _mm256_mul_pd(c0, _mm256_set1_pd(rinv)));
  }
  for (; t0 < a.headDim; ++t0) {
    Real c = ctx[t0];
    for (j = 0; j < n; ++j) c += scores[j] * vHead[j * a.dModel + t0];
    ctx[t0] = c * rinv;
  }
}

void avx2RowImpl(const DecodeAttnArgs& a, Index b, Real* scores) {
  for (Index h = 0; h < a.heads; ++h) avx2Head(a, b, h, scores);
}

}  // namespace

RowFn avx2Row() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok ? &avx2RowImpl : nullptr;
}

const TrainKernels* avx2Train() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok ? &AttnTrainSimd<Lanes4>::kKernels : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets or -DNNQS_ENABLE_AVX2=OFF

namespace nnqs::nn::kernels::detail {

RowFn avx2Row() { return nullptr; }
const TrainKernels* avx2Train() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
