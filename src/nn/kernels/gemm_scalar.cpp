// The scalar GEMM panel micro-kernel, used both as the no-SIMD fallback of
// the blocked driver and as the ground truth for its loop structure.  The
// naive reference that defines the arithmetic contract (gemm.hpp) is
// gemmReference (gemm_micro.hpp).  Compiled with -ffp-contract=off like the
// rest of the library; its only fused multiply-adds are the explicit
// std::fma calls.

#include "nn/kernels/gemm_micro.hpp"

namespace nnqs::nn::kernels::detail {

void scalarPanel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                 PanelB b, Index j0, Index w) {
  for (Index i = i0; i < i0 + mc; ++i) {
    Real* ci = g.c + i * g.ldc + j0;
    for (Index jj = 0; jj < w; ++jj) {
      Real s = ci[jj];
      for (Index l = 0; l < lc; ++l)
        s = std::fma(gemmA(g, i, l0 + l), b.p[l * b.kStride + jj * b.laneStride], s);
      ci[jj] = s;
    }
  }
}

}  // namespace nnqs::nn::kernels::detail
