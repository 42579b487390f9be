// Scalar reference elementwise backend.  Built with the project's portable
// flags (no SIMD, FP contraction off), so it is the ground truth the
// vectorized backends are tested bit-for-bit against.  The per-element tanh
// and GELU sequences live in elementwise.hpp (kernelTanh / geluScalar /
// geluGradScalar); the row kernels here define the LayerNorm contract's pass
// structure, and adamwScalar the AdamW update's operation sequence.

#include "nn/kernels/kernel_table.hpp"

namespace nnqs::nn::kernels::detail {

void tanhScalar(const Real* x, Real* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] = kernelTanh(x[i]);
}

void geluForwardScalar(const Real* x, Real* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] = geluScalar(x[i]);
}

void geluBackwardScalar(const Real* x, const Real* dy, Real* dx, Index n) {
  for (Index i = 0; i < n; ++i) dx[i] = dy[i] * geluGradScalar(x[i]);
}

void lnRowForwardScalar(const ResidualLnArgs& a, Index r) {
  const Index D = a.dim;
  const Real* x = a.x + r * D;
  const Real* src = x;
  // Pass 1: residual add fused with the mean partials (h written once).
  Real part[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (a.res != nullptr) {
    const Real* res = a.res + r * D;
    Real* h = a.h + r * D;
    for (Index i = 0; i < D; ++i) {
      const Real v = x[i] + res[i];
      h[i] = v;
      part[i & 7] += v;
    }
    src = h;
  } else {
    for (Index i = 0; i < D; ++i) part[i & 7] += x[i];
  }
  const Real mean = treeSum8(part) / static_cast<Real>(D);
  // Pass 2: variance partials.
  Real part2[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (Index i = 0; i < D; ++i) {
    const Real d = src[i] - mean;
    part2[i & 7] += d * d;
  }
  const Real var = treeSum8(part2) / static_cast<Real>(D);
  const Real is = 1.0 / std::sqrt(var + kLnEps);
  if (a.invStd != nullptr) a.invStd[r] = is;
  // Pass 3: normalize + affine (optionally caching xhat for backward).
  Real* y = a.y + r * D;
  if (a.xhat != nullptr) {
    Real* xh = a.xhat + r * D;
    for (Index i = 0; i < D; ++i) {
      const Real v = (src[i] - mean) * is;
      xh[i] = v;
      y[i] = a.gamma[i] * v + a.beta[i];
    }
  } else {
    for (Index i = 0; i < D; ++i)
      y[i] = a.gamma[i] * ((src[i] - mean) * is) + a.beta[i];
  }
}

void lnRowBackwardScalar(const LayerNormBwdArgs& a, Index r) {
  const Index D = a.dim;
  const Real* dy = a.dy + r * D;
  const Real* xh = a.xhat + r * D;
  Real p1[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  Real p2[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (Index i = 0; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    p1[i & 7] += dxh;
    p2[i & 7] += dxh * xh[i];
  }
  const Real s1 = treeSum8(p1) / static_cast<Real>(D);
  const Real s2 = treeSum8(p2) / static_cast<Real>(D);
  const Real is = a.invStd[r];
  Real* dx = a.dx + r * D;
  for (Index i = 0; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    dx[i] = is * ((dxh - s1) - xh[i] * s2);
  }
}

void lnParamGradsScalar(const LayerNormBwdArgs& a) {
  // Ascending-row accumulation per column; columns are independent, so the
  // SIMD backends vectorize across i with the very same per-column sums.
  for (Index r = 0; r < a.rows; ++r) {
    const Real* dy = a.dy + r * a.dim;
    const Real* xh = a.xhat + r * a.dim;
    for (Index i = 0; i < a.dim; ++i) {
      a.dgamma[i] += dy[i] * xh[i];
      a.dbeta[i] += dy[i];
    }
  }
}

void adamwScalar(const AdamWArgs& a, Index off, Index len) {
  for (Index i = off; i < off + len; ++i) {
    const Real g = a.grad[i];
    a.m[i] = a.beta1 * a.m[i] + (1.0 - a.beta1) * g;
    a.v[i] = a.beta2 * a.v[i] + (1.0 - a.beta2) * g * g;
    const Real mhat = a.m[i] / a.bc1;
    const Real vhat = a.v[i] / a.bc2;
    a.value[i] -= a.lr * (mhat / (std::sqrt(vhat) + a.eps) +
                          a.weightDecay * a.value[i]);
    a.grad[i] = 0.0;
  }
}

}  // namespace nnqs::nn::kernels::detail
