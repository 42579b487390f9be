#pragma once

// The GEMM panel kernel, written once on a lane type (simd_lanes.hpp) and
// instantiated per ISA through simd_kernels.hpp.  Include only from the ISA
// translation units.
//
// Bit-identity with the naive reference (contract in gemm.hpp): the 2W
// lanes of a panel row are 2W *independent* output columns; each
// accumulator lane starts from its C element (init or earlier-strip partial)
// and adds broadcast(A[i,l]) * B[l,j] in the same ascending-l order as the
// scalar loop, mul then add, never an FMA.  The MR x 2W register block
// exists purely to reuse each broadcast and each packed B row across
// independent outputs — it reorders nothing within any one output's sum.
// A partial final panel (w < 2W) loads and stores C through lane masks: its
// padded lanes accumulate +-0 terms from the panel's zero padding and are
// never stored.

#include "nn/kernels/gemm_micro.hpp"
#include "nn/kernels/simd_lanes.hpp"

namespace nnqs::nn::kernels::detail {

template <class S>
struct GemmSimd {
  using V = typename S::V;
  static constexpr Index W = S::kWidth;
  static constexpr Index kNr = 2 * W;  ///< panel width: two vectors of columns

  /// A[i, l] of the math problem (gemmA, ISA-local).
  static Real aAt(const GemmArgs& g, Index i, Index l) {
    return g.transA ? g.a[l * g.lda + i] : g.a[i * g.lda + l];
  }

  /// MR x 2W register block: C rows i..i+MR, columns j0..j0+w.  Edge
  /// instantiates the masked loads/stores of a partial final panel.
  template <int MR, bool Edge>
  static void micro(const GemmArgs& g, Index i, Index l0, Index lc, const Real* bp,
                    Index j0, Index w) {
    Real* crow[MR];
    V acc[MR][2];
    for (int r = 0; r < MR; ++r) {
      crow[r] = g.c + (i + r) * g.ldc + j0;
      if constexpr (Edge) {
        acc[r][0] = S::loadFirst(crow[r], w);
        acc[r][1] = S::loadFirst(crow[r] + W, w - W);
      } else {
        acc[r][0] = S::load(crow[r]);
        acc[r][1] = S::load(crow[r] + W);
      }
    }
    for (Index l = 0; l < lc; ++l) {
      const V b0 = S::load(bp + l * kNr);
      const V b1 = S::load(bp + l * kNr + W);
      for (int r = 0; r < MR; ++r) {
        const V ar = S::set1(aAt(g, i + r, l0 + l));
        acc[r][0] = S::add(acc[r][0], S::mul(ar, b0));
        acc[r][1] = S::add(acc[r][1], S::mul(ar, b1));
      }
    }
    for (int r = 0; r < MR; ++r) {
      if constexpr (Edge) {
        S::storeFirst(crow[r], acc[r][0], w);
        S::storeFirst(crow[r] + W, acc[r][1], w - W);
      } else {
        S::store(crow[r], acc[r][0]);
        S::store(crow[r] + W, acc[r][1]);
      }
    }
  }

  template <bool Edge>
  static void panelRows(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                        const Real* bp, Index j0, Index w) {
    Index i = i0;
    const Index iEnd = i0 + mc;
    for (; i + 4 <= iEnd; i += 4) micro<4, Edge>(g, i, l0, lc, bp, j0, w);
    switch (iEnd - i) {
      case 3: micro<3, Edge>(g, i, l0, lc, bp, j0, w); break;
      case 2: micro<2, Edge>(g, i, l0, lc, bp, j0, w); break;
      case 1: micro<1, Edge>(g, i, l0, lc, bp, j0, w); break;
      default: break;
    }
  }

  /// The GemmPanelFn (gemm_micro.hpp) over kNr-wide packed panels.
  static void panel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                    const Real* bp, Index j0, Index w) {
    if (w == kNr)
      panelRows<false>(g, i0, mc, l0, lc, bp, j0, w);
    else
      panelRows<true>(g, i0, mc, l0, lc, bp, j0, w);
  }
};

}  // namespace nnqs::nn::kernels::detail
