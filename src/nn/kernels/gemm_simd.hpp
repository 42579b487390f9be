#pragma once

// The GEMM panel kernel, written once on a lane type (simd_lanes.hpp) and
// instantiated per ISA through simd_kernels.hpp.  Include only from the ISA
// translation units.
//
// Bit-identity with the naive reference (contract in gemm.hpp): the 2W
// lanes of a panel row are 2W *independent* output columns; each
// accumulator lane starts from its C element (init or earlier-strip partial)
// and applies fmadd(broadcast(A[i,l]), B[l,j], acc) in the same ascending-l
// order as the reference's std::fma chain, each a correctly rounded fused
// multiply-add.  The MR x 2W register block exists to reuse each broadcast
// and each B row across independent outputs, and to keep enough independent
// chains in flight to cover the FMA latency — it reorders nothing within
// any one output's chain.  A B row is two vector loads when its lanes are
// adjacent (a packed panel, or plain B read in place) and two strided
// gathers otherwise (transB read in place).
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
  /// Register-block height: MR x 2 accumulators, two B vectors and one
  /// broadcast fit the register file (19 of AVX-512's 32 zmm at MR = 8, 15
  /// of AVX2's 16 ymm at MR = 6; AVX2's gathered block spills one, as the
  /// gather's index and mask take two more), and 16 or 12 independent FMA
  /// chains cover the FMA latency on two ports.
  static constexpr Index kMr = W == 8 ? 8 : 6;

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
  template <Index MR, bool Edge, bool Strided>
  static void micro(const GemmArgs& g, Index i, Index l0, Index lc, PanelB b, Index j0,
                    Index w) {
    // A[i + r, l0 + l] is arow[r][l * aStep] in either layout, so the k-loop
    // holds no layout branch.  The row loops take compile-time indices
    // (forEachIndex), which keeps acc in registers.
    const Index aStep = g.transA ? g.lda : 1;
    const Index aRowStride = g.transA ? 1 : g.lda;
    const Real* arow[MR];
    Real* crow[MR];
    V acc[MR][2];
    forEachIndex<MR>([&](auto r) {
      arow[r] = g.a + (i + r) * aRowStride + l0 * aStep;
      crow[r] = g.c + (i + r) * g.ldc + j0;
      if constexpr (Edge) {
        acc[r][0] = S::loadFirst(crow[r], w);
        acc[r][1] = S::loadFirst(crow[r] + W, w - W);
      } else {
        acc[r][0] = S::load(crow[r]);
        acc[r][1] = S::load(crow[r] + W);
      }
    });
    const Index half = W * b.laneStride;  // lane W of a B row
    for (Index l = 0; l < lc; ++l) {
      const Real* row = b.p + l * b.kStride;
      const V b0 = loadB<Edge, Strided>(row, b.laneStride, w);
      const V b1 = loadB<Edge, Strided>(row + half, b.laneStride, w - W);
      forEachIndex<MR>([&](auto r) {
        const V ar = S::set1(arow[r][l * aStep]);
        acc[r][0] = S::fmadd(ar, b0, acc[r][0]);
        acc[r][1] = S::fmadd(ar, b1, acc[r][1]);
      });
    }
    forEachIndex<MR>([&](auto r) {
      if constexpr (Edge) {
        S::storeFirst(crow[r], acc[r][0], w);
        S::storeFirst(crow[r] + W, acc[r][1], w - W);
      } else {
        S::store(crow[r], acc[r][0]);
        S::store(crow[r] + W, acc[r][1]);
      }
    });
  }

  /// The last `rows` < kMr rows in one block of exactly that height, so a
  /// problem of at most kMr rows reads B once.
  template <bool Edge, bool Strided, Index MR = kMr - 1>
  static void microTail(Index rows, const GemmArgs& g, Index i, Index l0, Index lc, PanelB b,
                        Index j0, Index w) {
    if constexpr (MR > 0) {
      if (rows == MR) return micro<MR, Edge, Strided>(g, i, l0, lc, b, j0, w);
      microTail<Edge, Strided, MR - 1>(rows, g, i, l0, lc, b, j0, w);
    }
  }

  template <bool Edge, bool Strided>
  static void panelRows(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc, PanelB b,
                        Index j0, Index w) {
    Index i = i0;
    const Index iEnd = i0 + mc;
    for (; i + kMr <= iEnd; i += kMr) micro<kMr, Edge, Strided>(g, i, l0, lc, b, j0, w);
    microTail<Edge, Strided>(iEnd - i, g, i, l0, lc, b, j0, w);
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
