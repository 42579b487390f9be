// AVX-512 decode-attention row kernel.
//
// Same arithmetic contract as the scalar reference and the AVX2 kernel
// (attn_row.hpp) — lanes are independent outputs only, FP contraction is off,
// exp8() is softmaxExp() per lane, and the denominator's 8 strided partials
// are exactly one 8-lane accumulator — so the output is bit-identical.
//
// What AVX-512 buys beyond the wider lanes is a *row-level* schedule: all of
// a row's heads run each phase back to back, so the K arena block (heads *
// headDim rows, adjacent by layout) and, in the full-span context phase, the
// V arena block are consumed as single sequential streams the hardware
// prefetcher can follow, instead of one head's 4 KB burst alternating with
// strided V traffic.  At paper-scale frontiers decodeStep is as much a
// memory problem as an ALU problem, and this is what keeps the kernel at
// L3-stream bandwidth.
//
// The training-attention kernels are the shared lane-templated body
// (attn_train_simd.hpp) instantiated on 8-lane vectors.

#include "nn/kernels/attn_row.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX512F__)

#include <immintrin.h>

#include "nn/kernels/attn_train_simd.hpp"
#include "nn/kernels/simd_exp.hpp"  // exp8: softmaxExp per lane

namespace nnqs::nn::kernels::detail {

namespace {

/// Scores + softmax numerator of one head: e_j into `scores`, returns rinv.
Real headScoresExp(const DecodeAttnArgs& a, const Real* q, const Real* kHead,
                   Real* scores) {
  const Index n = a.pos + 1;
  const Index maxLen = a.maxLen;
  Index j = 0;
  for (; j + 32 <= n; j += 32) {
    __m512d a0 = _mm512_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (Index t = 0; t < a.headDim; ++t) {
      const __m512d qt = _mm512_set1_pd(q[t]);
      const Real* kr = kHead + t * maxLen + j;
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(qt, _mm512_loadu_pd(kr)));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(qt, _mm512_loadu_pd(kr + 8)));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(qt, _mm512_loadu_pd(kr + 16)));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(qt, _mm512_loadu_pd(kr + 24)));
    }
    const __m512d sc = _mm512_set1_pd(a.scale);
    _mm512_storeu_pd(scores + j, _mm512_mul_pd(a0, sc));
    _mm512_storeu_pd(scores + j + 8, _mm512_mul_pd(a1, sc));
    _mm512_storeu_pd(scores + j + 16, _mm512_mul_pd(a2, sc));
    _mm512_storeu_pd(scores + j + 24, _mm512_mul_pd(a3, sc));
  }
  for (; j + 8 <= n; j += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (Index t = 0; t < a.headDim; ++t)
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(q[t]),
                                             _mm512_loadu_pd(kHead + t * maxLen + j)));
    _mm512_storeu_pd(scores + j, _mm512_mul_pd(acc, _mm512_set1_pd(a.scale)));
  }
  for (; j < n; ++j) {
    Real s = 0;
    for (Index t = 0; t < a.headDim; ++t) s += q[t] * kHead[t * maxLen + j];
    scores[j] = s * a.scale;
  }

  __m512d m8 = _mm512_set1_pd(-1e300);
  for (j = 0; j + 8 <= n; j += 8) m8 = _mm512_max_pd(m8, _mm512_loadu_pd(scores + j));
  Real mx = _mm512_reduce_max_pd(m8);  // max is exact: any reduction order
  for (; j < n; ++j) mx = std::max(mx, scores[j]);

  const Index blocks = n & ~Index{7};
  const __m512d mx8 = _mm512_set1_pd(mx);
  __m512d dacc = _mm512_setzero_pd();  // the contract's 8 strided partials
  for (j = 0; j < blocks; j += 8) {
    const __m512d e = exp8(_mm512_sub_pd(_mm512_loadu_pd(scores + j), mx8));
    _mm512_storeu_pd(scores + j, e);
    dacc = _mm512_add_pd(dacc, e);
  }
  alignas(64) Real part[8];
  _mm512_store_pd(part, dacc);
  for (j = blocks; j < n; ++j) {
    scores[j] = softmaxExp(scores[j] - mx);
    part[j & 7] += scores[j];
  }
  const Real denom = ((part[0] + part[1]) + (part[2] + part[3])) +
                     ((part[4] + part[5]) + (part[6] + part[7]));
  return 1.0 / denom;
}

/// Full-span context over W consecutive 8-feature blocks: one pass over the
/// V rows (sequential when the span is the whole dModel), every accumulator
/// in registers.  eRow[i]/einv[i] are block i's owning-head e array and rinv.
template <int W>
void ctxSpan(const Real* vRow, Index dModel, Index n, Real* ctx,
             const Real* const* eRow, const Real* einv) {
  __m512d c[W];
  for (int i = 0; i < W; ++i) c[i] = _mm512_loadu_pd(ctx + 8 * i);
  for (Index j = 0; j < n; ++j) {
    const Real* vj = vRow + j * dModel;
    for (int i = 0; i < W; ++i)
      c[i] = _mm512_add_pd(c[i], _mm512_mul_pd(_mm512_set1_pd(eRow[i][j]),
                                               _mm512_loadu_pd(vj + 8 * i)));
  }
  for (int i = 0; i < W; ++i)
    _mm512_storeu_pd(ctx + 8 * i, _mm512_mul_pd(c[i], _mm512_set1_pd(einv[i])));
}

void avx512RowImpl(const DecodeAttnArgs& a, Index b, Real* scores) {
  const Index slot = a.slots[b];
  const Index n = a.pos + 1;
  const Real* qRow = a.q + b * a.qStride;
  const Real* kSlot = a.k + slot * a.dModel * a.maxLen;
  const Real* vSlot = a.v + slot * a.maxLen * a.dModel;
  Real* ctxRow = a.ctx + b * a.dModel;
  Real* rinv = scores + a.heads * n;

  // Phase 1+2 per head, back to back: the heads' K blocks are adjacent, so
  // this reads the slot's whole K block as one sequential stream.
  for (Index h = 0; h < a.heads; ++h)
    rinv[h] = headScoresExp(a, qRow + h * a.headDim,
                            kSlot + h * a.headDim * a.maxLen, scores + h * n);

  if (a.headDim % 8 == 0) {
    // Phase 3, full feature span: one sequential pass over the V rows.
    const Real* eRow[8];
    Real einv[8];
    for (Index f0 = 0; f0 < a.dModel; f0 += 64) {
      const Index w = std::min<Index>(8, (a.dModel - f0) / 8);
      for (Index i = 0; i < w; ++i) {
        const Index h = (f0 + 8 * i) / a.headDim;
        eRow[i] = scores + h * n;
        einv[i] = rinv[h];
      }
      const Real* vBase = vSlot + f0;
      Real* ctx = ctxRow + f0;
      switch (w) {
        case 8: ctxSpan<8>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 7: ctxSpan<7>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 6: ctxSpan<6>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 5: ctxSpan<5>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 4: ctxSpan<4>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 3: ctxSpan<3>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 2: ctxSpan<2>(vBase, a.dModel, n, ctx, eRow, einv); break;
        case 1: ctxSpan<1>(vBase, a.dModel, n, ctx, eRow, einv); break;
        default: break;
      }
    }
  } else {
    // Ragged head width: per-head context, scalar feature tail.
    for (Index h = 0; h < a.heads; ++h) {
      const Real* e = scores + h * n;
      const Real* vHead = vSlot + h * a.headDim;
      Real* ctx = ctxRow + h * a.headDim;
      Index t0 = 0;
      for (; t0 + 8 <= a.headDim; t0 += 8) {
        __m512d c = _mm512_loadu_pd(ctx + t0);
        for (Index j = 0; j < n; ++j)
          c = _mm512_add_pd(c, _mm512_mul_pd(_mm512_set1_pd(e[j]),
                                             _mm512_loadu_pd(vHead + j * a.dModel + t0)));
        _mm512_storeu_pd(ctx + t0, _mm512_mul_pd(c, _mm512_set1_pd(rinv[h])));
      }
      for (; t0 < a.headDim; ++t0) {
        Real c = ctx[t0];
        for (Index j = 0; j < n; ++j) c += e[j] * vHead[j * a.dModel + t0];
        ctx[t0] = c * rinv[h];
      }
    }
  }
}

}  // namespace

RowFn avx512Row() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0;
  return ok ? &avx512RowImpl : nullptr;
}

const TrainKernels* avx512Train() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512dq") != 0;
  return ok ? &AttnTrainSimd<Lanes8>::kKernels : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets, old compiler, or AVX2 off

namespace nnqs::nn::kernels::detail {

RowFn avx512Row() { return nullptr; }
const TrainKernels* avx512Train() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
