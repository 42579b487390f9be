#pragma once

// The decode-attention row kernel, written once on a lane type
// (simd_lanes.hpp) and instantiated per ISA through simd_kernels.hpp.
// Include only from the ISA translation units.
//
// Bit-identity with the scalar reference (contract in attn_row.hpp): lanes
// are independent outputs only —
//   - scores: lanes are W distinct key positions; each lane's dot product
//     accumulates q_t * k_tj from +0.0 in ascending t, as the scalar kernel
//     does.  Blocks of 32 key positions keep 32 / W accumulators in flight,
//     which hides the add latency the scalar kernel's single running sum is
//     bound by; the rest runs one (possibly masked) vector at a time;
//   - max is exact, so the vector reduction order is immaterial;
//   - exp: contractExp is softmaxExp per lane, and the denominator's 8
//     strided partials are 8 / W lane accumulators combined by the fixed
//     tree.  The tail block adds +0.0 to the partials it does not cover,
//     which leaves them unchanged (sums of non-negatives are never -0.0);
//   - context: lanes are model features held in register accumulators; the
//     j-sum stays sequential.
// Row-level schedule: all of a row's heads run each phase back to back, so
// the K arena block (heads * headDim rows, adjacent by layout) and, in the
// full-span context phase, the V arena block are consumed as single
// sequential streams the hardware prefetcher can follow, instead of one
// head's burst alternating with strided V traffic.  At paper-scale
// frontiers decodeStep is as much a memory problem as an ALU problem, and
// this is what keeps the kernel at L3-stream bandwidth.

#include "nn/kernels/attn_row.hpp"
#include "nn/kernels/simd_lanes.hpp"

namespace nnqs::nn::kernels::detail {

template <class S>
struct DecodeAttnSimd {
  using V = typename S::V;
  static constexpr Index W = S::kWidth;
  static constexpr Index kScoreVecs = 32 / W;

  /// Scores + softmax numerator of one head: e_j into `e`, returns rinv.
  static Real headScoresExp(const DecodeAttnArgs& a, const Real* q, const Real* kHead,
                            Real* e) {
    const Index n = a.pos + 1;
    const Index maxLen = a.maxLen;
    const V scale = S::set1(a.scale);
    Index j = 0;
    for (; j + 32 <= n; j += 32) {
      V acc[kScoreVecs];
      for (Index i = 0; i < kScoreVecs; ++i) acc[i] = S::zero();
      for (Index t = 0; t < a.headDim; ++t) {
        const V qt = S::set1(q[t]);
        const Real* kr = kHead + t * maxLen + j;
        for (Index i = 0; i < kScoreVecs; ++i)
          acc[i] = S::add(acc[i], S::mul(qt, S::load(kr + W * i)));
      }
      for (Index i = 0; i < kScoreVecs; ++i) S::store(e + j + W * i, S::mul(acc[i], scale));
    }
    forEachBlock<S>(n - j, [&](Index j0, auto blk) {
      V acc = S::zero();
      for (Index t = 0; t < a.headDim; ++t)
        acc = S::add(acc, S::mul(S::set1(q[t]), blk.load(kHead + t * maxLen + j + j0)));
      blk.store(e + j + j0, S::mul(acc, scale));
    });

    V vmax = S::set1(-1e300);
    forEachBlock<S>(n, [&](Index j0, auto blk) {
      vmax = S::max(vmax, blk.keep(blk.load(e + j0), -1e300));
    });
    const V mx = S::set1(S::reduceMax(vmax));

    Partials8<S> denom;
    forEachBlock8<S>(n, [&](Index j0, auto blk, auto k) {
      const V ev = blk.keep(contractExp<S>(S::sub(blk.load(e + j0), mx)));
      blk.store(e + j0, ev);
      denom.add(k, ev);
    });
    return 1.0 / denom.sum();
  }

  /// Full-span context over NV consecutive W-feature blocks: one pass over
  /// the V rows (sequential when the span is the whole dModel), every
  /// accumulator in registers.  eRow[i]/einv[i] are block i's owning-head e
  /// array and rinv.
  template <int NV>
  static void ctxSpan(const Real* vRow, Index dModel, Index n, Real* ctx,
                      const Real* const* eRow, const Real* einv) {
    V c[NV];
    for (int i = 0; i < NV; ++i) c[i] = S::load(ctx + W * i);
    for (Index j = 0; j < n; ++j) {
      const Real* vj = vRow + j * dModel;
      for (int i = 0; i < NV; ++i)
        c[i] = S::add(c[i], S::mul(S::set1(eRow[i][j]), S::load(vj + W * i)));
    }
    for (int i = 0; i < NV; ++i) S::store(ctx + W * i, S::mul(c[i], S::set1(einv[i])));
  }

  /// One frontier row, all heads (a RowFn).
  static void row(const DecodeAttnArgs& a, Index b, Real* scores) {
    const Index slot = a.slots[b];
    const Index n = a.pos + 1;
    const Real* qRow = a.q + b * a.qStride;
    const Real* kSlot = a.k + slot * a.dModel * a.maxLen;
    const Real* vSlot = a.v + slot * a.maxLen * a.dModel;
    Real* ctxRow = a.ctx + b * a.dModel;
    Real* rinv = scores + a.heads * n;

    // Scores + exp per head, back to back: the heads' K blocks are
    // adjacent, so this reads the slot's whole K block as one stream.
    for (Index h = 0; h < a.heads; ++h)
      rinv[h] = headScoresExp(a, qRow + h * a.headDim, kSlot + h * a.headDim * a.maxLen,
                              scores + h * n);

    if (a.headDim % W == 0) {
      // Context, full feature span: one sequential pass over the V rows per
      // span of up to 8 vectors.
      const Real* eRow[8];
      Real einv[8];
      for (Index f0 = 0; f0 < a.dModel; f0 += 8 * W) {
        const Index nv = (a.dModel - f0) / W < 8 ? (a.dModel - f0) / W : 8;
        for (Index i = 0; i < nv; ++i) {
          const Index h = (f0 + W * i) / a.headDim;
          eRow[i] = scores + h * n;
          einv[i] = rinv[h];
        }
        const Real* vBase = vSlot + f0;
        Real* ctx = ctxRow + f0;
        switch (nv) {
          case 8: ctxSpan<8>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 7: ctxSpan<7>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 6: ctxSpan<6>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 5: ctxSpan<5>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 4: ctxSpan<4>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 3: ctxSpan<3>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 2: ctxSpan<2>(vBase, a.dModel, n, ctx, eRow, einv); break;
          case 1: ctxSpan<1>(vBase, a.dModel, n, ctx, eRow, einv); break;
          default: break;
        }
      }
    } else {
      // Ragged head width: per-head context, the last feature block masked.
      for (Index h = 0; h < a.heads; ++h) {
        const Real* e = scores + h * n;
        const Real* vHead = vSlot + h * a.headDim;
        Real* ctx = ctxRow + h * a.headDim;
        const V ri = S::set1(rinv[h]);
        forEachBlock<S>(a.headDim, [&](Index t0, auto blk) {
          V c = blk.load(ctx + t0);
          for (Index j = 0; j < n; ++j)
            c = S::add(c, S::mul(S::set1(e[j]), blk.load(vHead + j * a.dModel + t0)));
          blk.store(ctx + t0, S::mul(c, ri));
        });
      }
    }
  }
};

}  // namespace nnqs::nn::kernels::detail
