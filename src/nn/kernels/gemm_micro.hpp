#pragma once

// Internal header of the GEMM kernel backends: operand accessors, the B view
// and panel micro-kernel function type, the naive reference and the scalar
// panels.  The arithmetic contract lives in gemm.hpp; the scalar panels are
// in gemm_scalar.cpp, the SIMD panel in gemm_simd.hpp.

#include <cmath>

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
/// applies the strip's fused multiply-adds in ascending l per element, and
/// stores back — exactly the contract's chain, register-blocked over MR
/// rows x nr columns.
using GemmPanelFn = void (*)(const GemmArgs& g, Index i0, Index mc, Index l0,
                             Index lc, PanelB b, Index j0, Index w);

/// Whole-problem naive reference for KernelPolicy::kScalar — the loop the
/// contract is defined by (C pre-initialized by the driver).
using GemmReferenceFn = void (*)(const GemmArgs& g);

/// The naive reference, one instance per tier: the scalar tier instantiates
/// it on void, each ISA tier on its lane type, whose internal linkage keeps
/// the ISA-encoded copy private to its object (simd_lanes.hpp).  In an ISA
/// object std::fma is one instruction; in a scalar object built without FMA
/// it is a libm call, which is correctly rounded too, so every instance gives
/// the same bits.  It reads A and B by hand, not through gemmA and gemmB,
/// which an ISA object must not define a copy of.  Each element is one chain
/// in ascending l; four columns run side by side, because a lone chain waits
/// out the FMA latency at every step.
template <class Tier>
void gemmReference(const GemmArgs& g) {
  const auto a = [&g](Index i, Index l) {
    return g.transA ? g.a[l * g.lda + i] : g.a[i * g.lda + l];
  };
  const auto b = [&g](Index l, Index j) {
    return g.transB ? g.b[j * g.ldb + l] : g.b[l * g.ldb + j];
  };
  for (Index i = 0; i < g.m; ++i) {
    Real* ci = g.c + i * g.ldc;
    Index j = 0;
    for (; j + 4 <= g.n; j += 4) {
      Real s0 = ci[j], s1 = ci[j + 1], s2 = ci[j + 2], s3 = ci[j + 3];
      for (Index l = 0; l < g.k; ++l) {
        const Real ail = a(i, l);
        s0 = std::fma(ail, b(l, j), s0);
        s1 = std::fma(ail, b(l, j + 1), s1);
        s2 = std::fma(ail, b(l, j + 2), s2);
        s3 = std::fma(ail, b(l, j + 3), s3);
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < g.n; ++j) {
      Real s = ci[j];
      for (Index l = 0; l < g.k; ++l) s = std::fma(a(i, l), b(l, j), s);
      ci[j] = s;
    }
  }
}

/// Scalar panels, kScalarNr wide: the scalar tier's panel kernel (no SIMD
/// compiled in or supported), and the ground truth for the blocked loop
/// structure itself.
inline constexpr Index kScalarNr = 8;
void scalarPanel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                 PanelB b, Index j0, Index w);

}  // namespace nnqs::nn::kernels::detail
