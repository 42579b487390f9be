#pragma once

// Internal header of the GEMM kernel backends: operand accessors, the B view
// and panel micro-kernel function type, and the scalar panels.  The arithmetic
// contract lives in gemm.hpp; the scalar implementations that define it are
// in gemm_scalar.cpp, the SIMD panel in gemm_simd.hpp.

#include "nn/kernels/gemm.hpp"

namespace nnqs::nn::kernels::detail {

/// A[i,l] and B[l,j] of the math problem, through the trans flags.
inline Real gemmA(const GemmArgs& g, Index i, Index l) {
  return g.transA ? g.a[l * g.lda + i] : g.a[i * g.lda + l];
}
inline Real gemmB(const GemmArgs& g, Index l, Index j) {
  return g.transB ? g.b[j * g.ldb + l] : g.b[l * g.ldb + j];
}

/// How a panel kernel reads B: B[l0 + l, j0 + jj] of its panel is
/// p[l * kStride + jj * laneStride].  A packed panel is (panel, nr, 1); B
/// read in place (the driver's few-row path) is (b + l0*ldb + j0, ldb, 1),
/// or (b + j0*ldb + l0, 1, ldb) with transB.  Kernels read lanes jj < w
/// only, so no view reads past B's last column.
struct PanelB {
  const Real* p;
  Index kStride;
  Index laneStride;
};

/// One panel update: C[i0 .. i0+mc, j0 .. j0+w) += A[., l0 .. l0+lc) *
/// B[l0 .. l0+lc, j0 .. j0+w), B read through `b`.  C must already hold
/// init_ij (or the partial sum of earlier k-strips); the kernel loads C,
/// accumulates the strip's terms in ascending l per element, and stores
/// back — exactly the contract's sequential sum, register-blocked over MR
/// rows x nr columns.
using GemmPanelFn = void (*)(const GemmArgs& g, Index i0, Index mc, Index l0,
                             Index lc, PanelB b, Index j0, Index w);

/// Whole-problem naive reference for KernelPolicy::kScalar — the loop the
/// contract is defined by (C pre-initialized by the driver).
void gemmScalarRef(const GemmArgs& g);

/// Scalar panels, kScalarNr wide: the scalar tier's panel kernel (no SIMD
/// compiled in or supported), and the ground truth for the blocked loop
/// structure itself.
inline constexpr Index kScalarNr = 8;
void scalarPanel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                 PanelB b, Index j0, Index w);

}  // namespace nnqs::nn::kernels::detail
