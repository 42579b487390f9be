#pragma once

// Internal header of the attention kernel backends: the decode per-row kernel
// function type plus the scalar reference implementation that defines the
// arithmetic contract every backend reproduces bit for bit, and the training
// kernels' per-sample function type and scratch layout.

#include <algorithm>

#include "nn/kernels/kernels.hpp"

namespace nnqs::nn::kernels::detail {

/// One frontier row (all heads) of a decode-attention problem.  `scores` is
/// caller scratch of at least heads * (pos+1) elements (reused across rows).
using RowFn = void (*)(const DecodeAttnArgs&, Index b, Real* scores);

/// The scalar reference head kernel — ground truth for every backend.
///
/// The arithmetic contract (reproduced exactly, lane for lane, by the AVX2
/// and AVX-512 kernels; all participating translation units are compiled with
/// FP contraction off so no FMA sneaks into either side):
///   1. score_j = (sum_t q_t * k_tj, accumulated in ascending t) * scale
///   2. mx = max_j score_j                     (exact, order-independent)
///   3. e_j = softmaxExp(score_j - mx)         (e_j >= 0 always)
///   4. denom as eight strided partial sums p_l = sum_{j mod 8 == l} e_j
///      (each in ascending j) combined by the fixed tree
///      ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)) — exactly a SIMD kernel's
///      8-lane accumulator, so vector backends need no reduction reorder.
///      A vector tail block may zero-pad: the partials are sums of
///      non-negatives, so adding +0.0 cannot perturb them
///   5. rinv = 1 / denom
///   6. ctx_t = (sum_j e_j * v_jt, accumulated in ascending j) * rinv
/// Vector backends may vectorize only across independent outputs: key
/// positions j for 1-3 (one lane = one j, each accumulating in the same
/// ascending-t order), model features t for 6 (the j-sum stays sequential).
inline void attnHeadScalar(const DecodeAttnArgs& a, Index b, Index h, Real* scores) {
  const Index slot = a.slots[b];
  const Real* q = a.q + b * a.qStride + h * a.headDim;
  const Real* kHead = a.k + (slot * a.dModel + h * a.headDim) * a.maxLen;
  const Real* vHead = a.v + slot * a.maxLen * a.dModel + h * a.headDim;
  Real* ctx = a.ctx + b * a.dModel + h * a.headDim;
  const Index n = a.pos + 1;

  for (Index j = 0; j < n; ++j) {
    Real s = 0;
    for (Index t = 0; t < a.headDim; ++t) s += q[t] * kHead[t * a.maxLen + j];
    scores[j] = s * a.scale;
  }
  Real mx = -1e300;
  for (Index j = 0; j < n; ++j) mx = std::max(mx, scores[j]);
  const Real rinv = softmaxNormalize(scores, n, mx);

  for (Index j = 0; j < n; ++j) {
    const Real e = scores[j];
    const Real* vj = vHead + j * a.dModel;
    for (Index t = 0; t < a.headDim; ++t) ctx[t] += e * vj[t];
  }
  for (Index t = 0; t < a.headDim; ++t) ctx[t] *= rinv;
}

/// Out-of-line per-row wrapper usable as a RowFn (kernel_scalar.cpp).
void scalarRow(const DecodeAttnArgs& a, Index b, Real* scores);

/// One sample b (all heads) of a training-attention forward or backward
/// (AttnTrainArgs in kernels.hpp).  Samples write disjoint outputs, so the
/// threaded driver runs them in parallel; `scratch` is per-thread, at least
/// trainScratchLen(window, headDim) Reals, and needs no initialization.
using TrainFn = void (*)(const AttnTrainArgs&, Index b, Real* scratch);

/// The SIMD bodies pad key positions and head features to a multiple of
/// every lane width, so whole-vector blocks stay inside their scratch rows.
inline constexpr Index kTrainPad = 8;
inline Index trainPadded(Index n) {
  return (n + kTrainPad - 1) / kTrainPad * kTrainPad;
}
/// Scratch of every training backend (Lp, Hp = padded window and head
/// width): a [headDim][Lp] transposed K or V block, [Lp] per-row values,
/// [window][Lp] exp or dS rows and five [window][Hp] blocks of padded
/// operand and accumulator rows.
inline std::size_t trainScratchLen(Index window, Index headDim) {
  return static_cast<std::size_t>((headDim + 1 + window) * trainPadded(window) +
                                  5 * window * trainPadded(headDim));
}

/// The scalar training reference (kernel_scalar.cpp) — ground truth for the
/// SIMD body (attn_train_simd.hpp).
void trainForwardScalar(const AttnTrainArgs& a, Index b, Real* scratch);
void trainBackwardScalar(const AttnTrainArgs& a, Index b, Real* dA);

}  // namespace nnqs::nn::kernels::detail
