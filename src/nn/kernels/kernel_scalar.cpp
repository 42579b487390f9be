// Scalar reference attention kernels, decode and training.  This translation
// unit is built with the project's portable flags (no SIMD, FP contraction
// off), so it is the ground truth the vectorized backends are tested
// bit-for-bit against.

#include "nn/kernels/attn_row.hpp"

namespace nnqs::nn::kernels::detail {

void scalarRow(const DecodeAttnArgs& a, Index b, Real* scores) {
  for (Index h = 0; h < a.heads; ++h) attnHeadScalar(a, b, h, scores);
}

void trainForwardScalar(const AttnTrainArgs& a, Index b, Real* /*scratch*/) {
  const Index L = a.window, d = a.dModel, headDim = a.headDim;
  const Real* qkv = a.qkv;
  for (Index h = 0; h < a.heads; ++h) {
    const Index qOff = h * headDim;
    const Index kOff = d + h * headDim;
    const Index vOff = 2 * d + h * headDim;
    Real* aRow = a.attn + ((b * a.heads + h) * L) * L;
    for (Index i = 0; i < L; ++i) {
      const Real* qi = qkv + (b * L + i) * 3 * d + qOff;
      Real* ai = aRow + i * L;
      Real mx = -1e300;
      for (Index j = 0; j <= i; ++j) {
        const Real* kj = qkv + (b * L + j) * 3 * d + kOff;
        Real s = 0;
        for (Index t = 0; t < headDim; ++t) s += qi[t] * kj[t];
        ai[j] = s * a.scale;
        mx = std::max(mx, ai[j]);
      }
      const Real rinv = softmaxNormalize(ai, i + 1, mx);
      for (Index j = i + 1; j < L; ++j) ai[j] = 0.0;  // causal mask
      // Context = (sum_j e_ij v_j) * rinv.
      Real* ci = a.ctx + (b * L + i) * d + qOff;
      for (Index j = 0; j <= i; ++j) {
        const Real e = ai[j];
        const Real* vj = qkv + (b * L + j) * 3 * d + vOff;
        for (Index t = 0; t < headDim; ++t) ci[t] += e * vj[t];
      }
      for (Index t = 0; t < headDim; ++t) ci[t] *= rinv;
      // Normalized weights for backward's softmax-gradient cache.
      for (Index j = 0; j <= i; ++j) ai[j] *= rinv;
    }
  }
}

void trainBackwardScalar(const AttnTrainArgs& a, Index b, Real* dA) {
  const Index Lc = a.window, d = a.dModel, headDim = a.headDim;
  const Real* qkv = a.qkv;
  Real* dQkv = a.dQkv;
  for (Index h = 0; h < a.heads; ++h) {
    const Index qOff = h * headDim;
    const Index kOff = d + h * headDim;
    const Index vOff = 2 * d + h * headDim;
    const Real* aRow = a.attn + ((b * a.heads + h) * Lc) * Lc;
    for (Index i = 0; i < Lc; ++i) {
      const Real* ai = aRow + i * Lc;
      const Real* dci = a.dCtx + (b * Lc + i) * d + qOff;
      // dV_j += a_ij dC_i ; dA_ij = dC_i . V_j
      for (Index j = 0; j <= i; ++j) {
        const Real* vj = qkv + (b * Lc + j) * 3 * d + vOff;
        Real* dvj = dQkv + (b * Lc + j) * 3 * d + vOff;
        Real da = 0;
        for (Index t = 0; t < headDim; ++t) {
          dvj[t] += ai[j] * dci[t];
          da += dci[t] * vj[t];
        }
        dA[j] = da;
      }
      // Softmax backward: dS_ij = a_ij (dA_ij - sum_k a_ik dA_ik).
      Real dot = 0;
      for (Index j = 0; j <= i; ++j) dot += ai[j] * dA[j];
      const Real* qi = qkv + (b * Lc + i) * 3 * d + qOff;
      Real* dqi = dQkv + (b * Lc + i) * 3 * d + qOff;
      for (Index j = 0; j <= i; ++j) {
        const Real ds = ai[j] * (dA[j] - dot) * a.scale;
        if (ds == 0.0) continue;
        const Real* kj = qkv + (b * Lc + j) * 3 * d + kOff;
        Real* dkj = dQkv + (b * Lc + j) * 3 * d + kOff;
        for (Index t = 0; t < headDim; ++t) {
          dqi[t] += ds * kj[t];
          dkj[t] += ds * qi[t];
        }
      }
    }
  }
}

}  // namespace nnqs::nn::kernels::detail
