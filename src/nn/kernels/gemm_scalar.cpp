// Scalar GEMM backends: the naive reference loop that defines the arithmetic
// contract (gemm.hpp), and the scalar panel micro-kernel used both as the
// no-SIMD fallback of the blocked driver and as the ground truth for its
// loop structure.  Compiled with -ffp-contract=off like the rest of
// the library.

#include "nn/kernels/gemm_micro.hpp"

namespace nnqs::nn::kernels::detail {

void gemmScalarRef(const GemmArgs& g) {
  // C holds init_ij already (driver); one sequential ascending-l sum each.
  for (Index i = 0; i < g.m; ++i) {
    Real* ci = g.c + i * g.ldc;
    for (Index j = 0; j < g.n; ++j) {
      Real s = ci[j];
      for (Index l = 0; l < g.k; ++l) s += gemmA(g, i, l) * gemmB(g, l, j);
      ci[j] = s;
    }
  }
}

void scalarPanel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                 PanelB b, Index j0, Index w) {
  for (Index i = i0; i < i0 + mc; ++i) {
    Real* ci = g.c + i * g.ldc + j0;
    for (Index jj = 0; jj < w; ++jj) {
      Real s = ci[jj];
      for (Index l = 0; l < lc; ++l)
        s += gemmA(g, i, l0 + l) * b.p[l * b.kStride + jj * b.laneStride];
      ci[jj] = s;
    }
  }
}

}  // namespace nnqs::nn::kernels::detail
