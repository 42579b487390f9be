#pragma once

#include <cmath>

#include "nn/kernels/kernels.hpp"

namespace nnqs::nn::kernels {

/// The elementwise kernel family behind the decode step's non-GEMM stages:
/// vectorized GELU (forward + backward), the phase MLP's tanh, and a fused
/// residual + LayerNorm row kernel (forward + backward); plus the optimizer
/// step's AdamW update.  Third member of the kernel-backend set after decode
/// attention (attn_row.hpp) and GEMM (gemm.hpp), under the same
/// arithmetic contract style: every output element is produced by one fixed
/// IEEE-754 operation sequence (defined by the scalar reference in
/// elementwise_scalar.cpp, FP contraction off), and the AVX2/AVX-512 backends
/// vectorize only across *independent* outputs — elements for GELU, feature
/// lanes for the LayerNorm passes — while row reductions use the 8 strided
/// partials + fixed combine tree of the softmax denominator (kernels.hpp), so
/// every KernelPolicy produces identical bits.  The threaded driver
/// parallelizes over disjoint element chunks / rows.
///
/// The tape forward and the incremental decode step both run on these
/// kernels (GELU as a call of DecoderBlock, LayerNorm through the module's
/// forwardTape and forwardInto), so the two paths give the same bits.

/// tanh for the GELU kernels: branch-free on top of the shared softmaxExp
/// machinery.  tanh(u) = sign(u) * (1 - e) / (1 + e) with e =
/// softmaxExp(-2|u|) — the argument is always <= 0, exactly softmaxExp's
/// softmax-weight domain, so the kernel exp's ~1 ulp accuracy carries over
/// (a few ulp for the quotient).  The SIMD backends evaluate this exact
/// operation sequence per lane (division is correctly rounded, copysign is a
/// bit operation), so vector and scalar results are identical.
inline Real kernelTanh(Real u) {
  const Real e = softmaxExp(-2.0 * std::fabs(u));
  const Real t = (1.0 - e) / (1.0 + e);
  return std::copysign(t, u);
}

inline constexpr Real kGeluC = 0.7978845608028654;  // sqrt(2/pi)
inline constexpr Real kGeluCube = 0.044715;
inline constexpr Real kGeluCube3 = 3.0 * 0.044715;
inline constexpr Real kLnEps = 1e-5;

/// The GELU (tanh approximation) contract, one element: the parenthesization
/// is part of the contract — SIMD lanes perform exactly this sequence.
inline Real geluScalar(Real v) {
  const Real v2 = v * v;
  const Real u = kGeluC * (v + kGeluCube * (v2 * v));
  const Real t = kernelTanh(u);
  return (0.5 * v) * (1.0 + t);
}

/// d gelu(v) / dv, one element (the contract's backward sequence).
inline Real geluGradScalar(Real v) {
  const Real v2 = v * v;
  const Real u = kGeluC * (v + kGeluCube * (v2 * v));
  const Real t = kernelTanh(u);
  const Real du = kGeluC * (1.0 + kGeluCube3 * v2);
  return 0.5 * (1.0 + t) + (0.5 * v) * ((1.0 - t * t) * du);
}

/// The contract's row-reduction combine: eight i mod 8 strided partials
/// summed by the fixed tree — exactly one SIMD 8-lane accumulator (one
/// AVX-512 register, an AVX2 register pair), as in softmaxNormalize.
inline Real treeSum8(const Real part[8]) {
  return ((part[0] + part[1]) + (part[2] + part[3])) +
         ((part[4] + part[5]) + (part[6] + part[7]));
}

/// y = kernelTanh(x), elementwise over n values; x == y (in-place) is
/// allowed.  The phase MLP's activation: PhaseMlp::forwardTape runs it in
/// place on each hidden Linear's tape output, in training and inference.
/// Within 1e-15 of std::tanh, exactly ±1 once |x| saturates, ±0 at ±0; like
/// the GELU tanh it maps NaN to ±1.
void tanh(const Real* x, Real* y, Index n,
          KernelPolicy policy = KernelPolicy::kAuto);

/// y = gelu(x), elementwise over n values.  x == y (in-place) is allowed.
void gelu(const Real* x, Real* y, Index n,
          KernelPolicy policy = KernelPolicy::kAuto);

/// dx = dy * gelu'(x), elementwise.  dy == dx (in-place) is allowed.
void geluBackward(const Real* x, const Real* dy, Real* dx, Index n,
                  KernelPolicy policy = KernelPolicy::kAuto);

/// One fused residual + LayerNorm problem over `rows` independent rows of
/// width `dim`:
///
///   h_i    = x_i + res_i          (res == nullptr: h_i = x_i, not stored)
///   mean   = treeSum8(h) / dim    (8 strided partials, fixed tree)
///   var    = treeSum8((h_i - mean)^2) / dim
///   invStd = 1 / sqrt(var + kLnEps)
///   xhat_i = (h_i - mean) * invStd
///   y_i    = gamma_i * xhat_i + beta_i
///
/// The residual add is fused into the mean pass (h is written once while the
/// partials accumulate), replacing the historical separate residual sweep +
/// three LayerNorm passes over freshly allocated tensors.  `h` doubles as the
/// materialized residual-stream value the caller needs downstream (the
/// pre-LN transformer consumes x + res again as the next residual), so it is
/// required exactly when `res` is given.  `xhat`/`invStd` are optional
/// backward caches (training path); decode leaves them null.
struct ResidualLnArgs {
  Index rows = 0, dim = 0;
  const Real* x = nullptr;      ///< [rows, dim]
  const Real* res = nullptr;    ///< optional second addend [rows, dim]
  const Real* gamma = nullptr;  ///< [dim]
  const Real* beta = nullptr;   ///< [dim]
  Real* h = nullptr;            ///< [rows, dim] out: x + res; required iff res
  Real* y = nullptr;            ///< [rows, dim] out
  Real* xhat = nullptr;         ///< optional [rows, dim] backward cache
  Real* invStd = nullptr;       ///< optional [rows] backward cache
};
void residualLayerNorm(const ResidualLnArgs& args,
                       KernelPolicy policy = KernelPolicy::kAuto);

/// LayerNorm backward over independent rows (the fused forward's caches):
///
///   dxh_i = dy_i * gamma_i
///   s1 = treeSum8(dxh) / dim ;  s2 = treeSum8(dxh_i * xhat_i) / dim
///   dx_i = invStd * ((dxh_i - s1) - xhat_i * s2)
///
/// plus the parameter gradients, accumulated (+=) in ascending-row order per
/// column: dgamma_i += dy_ri * xhat_ri, dbeta_i += dy_ri.  The param-grad
/// pass is serial over rows (shared accumulators); dx rows thread freely.
struct LayerNormBwdArgs {
  Index rows = 0, dim = 0;
  const Real* dy = nullptr;      ///< [rows, dim]
  const Real* xhat = nullptr;    ///< [rows, dim] forward cache
  const Real* invStd = nullptr;  ///< [rows] forward cache
  const Real* gamma = nullptr;   ///< [dim]
  Real* dgamma = nullptr;        ///< [dim], accumulated
  Real* dbeta = nullptr;         ///< [dim], accumulated
  Real* dx = nullptr;            ///< [rows, dim] out
};
void layerNormBackward(const LayerNormBwdArgs& args,
                       KernelPolicy policy = KernelPolicy::kAuto);

/// One AdamW update of n parameters in place (nn::AdamW::step runs it once,
/// over a network's whole flat parameter store).  Element i, with g = grad[i]:
///
///   m_i = beta1 * m_i + (1 - beta1) * g
///   v_i = beta2 * v_i + ((1 - beta2) * g) * g
///   w_i = w_i - lr * ((m_i / bc1) / (sqrt(v_i / bc2) + eps) + weightDecay * w_i)
///   grad_i = 0
///
/// bc1 = 1 - beta1^t and bc2 = 1 - beta2^t are the bias corrections of step
/// t.  Every operation is one correctly rounded IEEE operation, so every
/// KernelPolicy produces identical bits.
struct AdamWArgs {
  Index n = 0;
  Real* value = nullptr;  ///< [n] parameters, updated
  Real* grad = nullptr;   ///< [n] gradients, read, then zeroed
  Real* m = nullptr;      ///< [n] first moments, updated
  Real* v = nullptr;      ///< [n] second moments, updated
  Real lr = 0, beta1 = 0, beta2 = 0, eps = 0, weightDecay = 0;
  Real bc1 = 1, bc2 = 1;
};
void adamw(const AdamWArgs& args, KernelPolicy policy = KernelPolicy::kAuto);

/// Resolve kAuto against the element count (mirrors resolvePolicy /
/// resolveGemmPolicy for the other kernel families).
KernelPolicy resolveElementwisePolicy(KernelPolicy policy, Index work);

}  // namespace nnqs::nn::kernels
