#pragma once

// The training-attention SIMD body, written once on a lane type
// (simd_lanes.hpp) and instantiated per ISA through simd_kernels.hpp.
// Include only from the ISA translation units.
//
// Bit-identity with the scalar reference (kernel_scalar.cpp, contract in
// kernels.hpp's AttnTrainArgs): lanes are independent outputs only, and
// each lane performs the reference's operations for its element in the
// reference's order.
//   - Scores, dA and dS: lanes are key positions j.  K (forward) or V
//     (backward) of the (sample, head) is first transposed to [t][j] so a
//     lane block loads contiguously; each lane's dot product still
//     accumulates from 0 in ascending t.  Lanes past the causal bound are
//     computed on padding and masked out (scores to -inf, whose exp is an
//     exact +0 that leaves the denominator partials unchanged) or never read.
//   - Softmax: contractExp is softmaxExp per lane, and the contract's 8
//     strided denominator partials are 8 / W lane accumulators, combined by
//     the same fixed tree.
//   - dot_i = sum_j a_ij dA_ij stays one scalar ascending-j sum.
//   - Context, dQ, dV and dK: lanes are the head's features.  Each output
//     row is a sum over the other index, kept in that index's ascending
//     order, but the loops nest with the summation index OUTSIDE (context
//     and dQ: j outer, i inner; dV and dK: i outer, j inner), so consecutive
//     updates go to different rows and overlap instead of forming one
//     add-latency chain.  Operands and accumulators are copied into rows
//     zero-padded to whole vectors, so the inner loops need no masks (and,
//     for heads of one or two vectors, no feature loop either); the
//     accumulators start from the output's values (which the contract
//     zeroes) and are copied back at the end — the same sums as the
//     reference's in-place +=.  The dS == 0 skip is kept.
// Each stage runs over all rows of a head before the next starts, so the
// rows' independent latency chains (exp, denominator, division, dot) sit
// next to each other in the instruction stream.

#include <limits>

#include "nn/kernels/attn_row.hpp"
#include "nn/kernels/simd_lanes.hpp"

namespace nnqs::nn::kernels::detail {

template <class S>
struct AttnTrainSimd {
  using V = typename S::V;
  static constexpr Index W = S::kWidth;
  static_assert(kTrainPad % W == 0 && 8 % W == 0, "lane width must divide the padding");
  static constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();

  /// trainPadded (attn_row.hpp), ISA-local.
  static Index padded(Index n) { return (n + kTrainPad - 1) / kTrainPad * kTrainPad; }

  /// Lanes [0, n) of p (n may exceed W), the rest +0.0.
  static V loadUpTo(const Real* p, Index n) {
    return n >= W ? S::load(p) : S::loadFirst(p, n);
  }

  /// out[t * Lp + j] = row j's slice at `off`, t < headDim; padded j >= L
  /// are zero so whole-vector blocks compute on finite values.
  static void transposeHead(const AttnTrainArgs& a, Index b, Index off, Real* out) {
    const Index L = a.window, Lp = padded(L), stride = 3 * a.dModel;
    const Real* base = a.qkv + b * L * stride + off;
    for (Index j = 0; j < L; ++j)
      for (Index t = 0; t < a.headDim; ++t) out[t * Lp + j] = base[j * stride + t];
    for (Index t = 0; t < a.headDim; ++t)
      for (Index j = L; j < Lp; ++j) out[t * Lp + j] = 0.0;
  }

  /// acc[j] = sum_t x[t] * xT[t][j] (ascending t) for the block at j0.
  static V dotBlock(const Real* x, const Real* xT, Index Lp, Index headDim, Index j0) {
    V acc = S::zero();
    for (Index t = 0; t < headDim; ++t)
      acc = S::add(acc, S::mul(S::set1(x[t]), S::load(xT + t * Lp + j0)));
    return acc;
  }

  /// Head width padded to whole vectors (<= trainPadded(hd)).
  static Index padFeatures(Index hd) { return (hd + W - 1) / W * W; }

  /// out[r * Hp ..] = the hd-wide slices of L rows `stride` apart, each
  /// zero-padded to Hp = padFeatures(hd).
  static void padRows(const Real* src, Index stride, Index L, Index hd, Real* out) {
    const Index Hp = padFeatures(hd);
    for (Index r = 0; r < L; ++r)
      for (Index t0 = 0; t0 < Hp; t0 += W)
        S::store(out + r * Hp + t0,
                 t0 < hd ? loadUpTo(src + r * stride + t0, hd - t0) : S::zero());
  }

  /// The inverse of padRows, optionally scaling row r by rowScale[r].
  static void unpadRows(const Real* acc, Index L, Index hd, Real* out, Index stride,
                        const Real* rowScale = nullptr) {
    const Index Hp = padFeatures(hd);
    for (Index r = 0; r < L; ++r)
      for (Index t0 = 0; t0 < hd; t0 += W) {
        V v = S::load(acc + r * Hp + t0);
        if (rowScale != nullptr) v = S::mul(v, S::set1(rowScale[r]));
        if (hd - t0 >= W)
          S::store(out + r * stride + t0, v);
        else
          S::storeFirst(out + r * stride + t0, v, hd - t0);
      }
  }

  /// acc += c * x over Hp padded feature lanes: NV vectors when NV > 0
  /// (a loop the compiler unrolls), else Hp / W.
  template <int NV>
  static void axpy(Real* acc, Real c, const Real* x, Index Hp) {
    const V cv = S::set1(c);
    for (Index t0 = 0; t0 < (NV > 0 ? NV * W : Hp); t0 += W)
      S::store(acc + t0, S::add(S::load(acc + t0), S::mul(cv, S::load(x + t0))));
  }

  static void forward(const AttnTrainArgs& a, Index b, Real* scratch) {
    switch (padFeatures(a.headDim) / W) {
      case 1: forwardBody<1>(a, b, scratch); break;
      case 2: forwardBody<2>(a, b, scratch); break;
      default: forwardBody<0>(a, b, scratch); break;
    }
  }

  static void backward(const AttnTrainArgs& a, Index b, Real* scratch) {
    switch (padFeatures(a.headDim) / W) {
      case 1: backwardBody<1>(a, b, scratch); break;
      case 2: backwardBody<2>(a, b, scratch); break;
      default: backwardBody<0>(a, b, scratch); break;
    }
  }

  template <int NV>
  static void forwardBody(const AttnTrainArgs& a, Index b, Real* scratch) {
    const Index L = a.window, Lp = padded(L), d = a.dModel;
    const Index stride = 3 * d, hd = a.headDim, Hp = padFeatures(hd);
    Real* kT = scratch;         // [hd][Lp] transposed K
    Real* rinv = kT + hd * Lp;  // [L] row max, then 1/denominator
    Real* E = rinv + Lp;        // [L][Lp] scores, then exp
    Real* C = E + L * Lp;       // [L][Hp] context accumulators
    Real* Vp = C + L * Hp;      // [L][Hp] padded V
    const Real* rows = a.qkv + b * L * stride;
    Real* ctx = a.ctx + b * L * d;
    const V scale = S::set1(a.scale);
    for (Index h = 0; h < a.heads; ++h) {
      const Index qOff = h * hd;
      transposeHead(a, b, d + qOff, kT);
      // Scores (lanes = key positions), masked past the causal bound, and
      // each row's exact max.
      for (Index i = 0; i < L; ++i) {
        const Real* qi = rows + i * stride + qOff;
        V vmax = S::set1(-1e300);
        for (Index j0 = 0; j0 <= i; j0 += W) {
          const V s = S::keepFirst(S::mul(dotBlock(qi, kT, Lp, hd, j0), scale),
                                   i + 1 - j0, kNegInf);
          S::store(E + i * Lp + j0, s);
          vmax = S::max(vmax, s);
        }
        rinv[i] = S::reduceMax(vmax);
      }
      // exp + the 8 strided denominator partials.
      for (Index i = 0; i < L; ++i) {
        Real* e = E + i * Lp;
        const V mxv = S::set1(rinv[i]);
        Partials8<S> denom;
        for (Index j0 = 0; j0 <= i; j0 += W) {
          const V ev = contractExp<S>(S::sub(S::load(e + j0), mxv));
          S::store(e + j0, ev);
          denom.add((j0 & 7) / W, ev);
        }
        rinv[i] = 1.0 / denom.sum();
      }
      // Normalized weights; masked lanes hold e = +0, so they store 0.
      Real* aRow = a.attn + ((b * a.heads + h) * L) * L;
      for (Index i = 0; i < L; ++i) {
        Real* ai = aRow + i * L;
        const V rv = S::set1(rinv[i]);
        for (Index j0 = 0; j0 < L; j0 += W) {
          const V w = j0 <= i ? S::mul(S::load(E + i * Lp + j0), rv) : S::zero();
          if (j0 + W <= L)
            S::store(ai + j0, w);
          else
            S::storeFirst(ai + j0, w, L - j0);
        }
      }
      // Context_i = (sum_j e_ij v_j) * rinv_i.
      padRows(ctx + qOff, d, L, hd, C);
      padRows(rows + 2 * d + qOff, stride, L, hd, Vp);
      for (Index j = 0; j < L; ++j)
        for (Index i = j; i < L; ++i)
          axpy<NV>(C + i * Hp, E[i * Lp + j], Vp + j * Hp, Hp);
      unpadRows(C, L, hd, ctx + qOff, d, rinv);
    }
  }

  template <int NV>
  static void backwardBody(const AttnTrainArgs& a, Index b, Real* scratch) {
    const Index L = a.window, Lp = padded(L), d = a.dModel;
    const Index stride = 3 * d, hd = a.headDim, Hp = padFeatures(hd);
    Real* vT = scratch;        // [hd][Lp] transposed V
    Real* dS = vT + hd * Lp;   // [L][Lp] dA, then dS
    Real* accA = dS + L * Lp;  // [L][Hp] dQ, then dV accumulators
    Real* accB = accA + L * Hp;  // [L][Hp] dK accumulators
    Real* Qp = accB + L * Hp;  // [L][Hp] padded Q, K and dC
    Real* Kp = Qp + L * Hp;
    Real* Dp = Kp + L * Hp;
    const Real* rows = a.qkv + b * L * stride;
    const Real* dC = a.dCtx + b * L * d;
    Real* dRows = a.dQkv + b * L * stride;
    const V scale = S::set1(a.scale);
    for (Index h = 0; h < a.heads; ++h) {
      const Index qOff = h * hd, kOff = d + qOff, vOff = 2 * d + qOff;
      const Real* aRow = a.attn + ((b * a.heads + h) * L) * L;
      transposeHead(a, b, vOff, vT);
      // dA_ij = dC_i . V_j (lanes = key positions).
      for (Index i = 0; i < L; ++i)
        for (Index j0 = 0; j0 <= i; j0 += W)
          S::store(dS + i * Lp + j0, dotBlock(dC + i * d + qOff, vT, Lp, hd, j0));
      // dS_ij = (a_ij (dA_ij - dot_i)) * scale; lanes past i are never read.
      for (Index i = 0; i < L; ++i) {
        const Real* ai = aRow + i * L;
        Real* dSi = dS + i * Lp;
        Real dot = 0;
        for (Index j = 0; j <= i; ++j) dot += ai[j] * dSi[j];
        const V dotv = S::set1(dot);
        for (Index j0 = 0; j0 <= i; j0 += W)
          S::store(dSi + j0, S::mul(S::mul(loadUpTo(ai + j0, i + 1 - j0),
                                           S::sub(S::load(dSi + j0), dotv)),
                                    scale));
      }
      padRows(rows + qOff, stride, L, hd, Qp);
      padRows(rows + kOff, stride, L, hd, Kp);
      padRows(dC + qOff, d, L, hd, Dp);
      // dQ_i += sum_j dS_ij K_j.
      padRows(dRows + qOff, stride, L, hd, accA);
      for (Index j = 0; j < L; ++j)
        for (Index i = j; i < L; ++i) {
          const Real s = dS[i * Lp + j];
          if (s != 0.0) axpy<NV>(accA + i * Hp, s, Kp + j * Hp, Hp);
        }
      unpadRows(accA, L, hd, dRows + qOff, stride);
      // dV_j += sum_i a_ij dC_i and dK_j += sum_i dS_ij Q_i.
      padRows(dRows + vOff, stride, L, hd, accA);
      padRows(dRows + kOff, stride, L, hd, accB);
      for (Index i = 0; i < L; ++i)
        for (Index j = 0; j <= i; ++j) {
          axpy<NV>(accA + j * Hp, aRow[i * L + j], Dp + i * Hp, Hp);
          const Real s = dS[i * Lp + j];
          if (s != 0.0) axpy<NV>(accB + j * Hp, s, Qp + i * Hp, Hp);
        }
      unpadRows(accA, L, hd, dRows + vOff, stride);
      unpadRows(accB, L, hd, dRows + kOff, stride);
    }
  }
};

}  // namespace nnqs::nn::kernels::detail
