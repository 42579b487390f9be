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
// exists purely to reuse each broadcast and each B row across independent
// outputs — it reorders nothing within any one output's sum.  A B row is
// two vector loads when its lanes are adjacent (a packed panel, or plain B
// read in place) and two strided gathers otherwise (transB read in place).
// A partial final panel (w < 2W) loads and stores C, and loads or gathers
// B, through lane masks: its lanes >= w accumulate terms from +0.0 and are
// never stored, and nothing past column j0 + w is read.

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

  /// A B row's lanes from p, `stride` apart when Strided: [0, n) on an
  /// Edge panel, all W otherwise.
  template <bool Edge, bool Strided>
  static V loadB(const Real* p, Index stride, Index n) {
    if constexpr (Strided)
      return S::gatherFirst(p, stride, Edge ? n : W);
    else if constexpr (Edge)
      return S::loadFirst(p, n);
    else
      return S::load(p);
  }

  /// MR x 2W register block: C rows i..i+MR, columns j0..j0+w.  Edge
  /// instantiates the masked accesses of a partial final panel, Strided the
  /// gathers of a B whose lanes are not adjacent.
  template <int MR, bool Edge, bool Strided>
  static void micro(const GemmArgs& g, Index i, Index l0, Index lc, PanelB b, Index j0,
                    Index w) {
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
    const Index half = W * b.laneStride;  // lane W of a B row
    for (Index l = 0; l < lc; ++l) {
      const Real* row = b.p + l * b.kStride;
      const V b0 = loadB<Edge, Strided>(row, b.laneStride, w);
      const V b1 = loadB<Edge, Strided>(row + half, b.laneStride, w - W);
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

  template <bool Edge, bool Strided>
  static void panelRows(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc, PanelB b,
                        Index j0, Index w) {
    Index i = i0;
    const Index iEnd = i0 + mc;
    for (; i + 4 <= iEnd; i += 4) micro<4, Edge, Strided>(g, i, l0, lc, b, j0, w);
    switch (iEnd - i) {
      case 3: micro<3, Edge, Strided>(g, i, l0, lc, b, j0, w); break;
      case 2: micro<2, Edge, Strided>(g, i, l0, lc, b, j0, w); break;
      case 1: micro<1, Edge, Strided>(g, i, l0, lc, b, j0, w); break;
      default: break;
    }
  }

  /// The GemmPanelFn (gemm_micro.hpp) over kNr-wide panels.
  static void panel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc, PanelB b,
                    Index j0, Index w) {
    if (b.laneStride == 1) {
      if (w == kNr)
        panelRows<false, false>(g, i0, mc, l0, lc, b, j0, w);
      else
        panelRows<true, false>(g, i0, mc, l0, lc, b, j0, w);
    } else {
      if (w == kNr)
        panelRows<false, true>(g, i0, mc, l0, lc, b, j0, w);
      else
        panelRows<true, true>(g, i0, mc, l0, lc, b, j0, w);
    }
  }
};

}  // namespace nnqs::nn::kernels::detail
