#pragma once

// The elementwise kernels — tanh, GELU, GELU', the fused residual +
// LayerNorm forward, backward and parameter gradients, and the AdamW
// update — written once on a lane type (simd_lanes.hpp) and instantiated
// per ISA through simd_kernels.hpp.  Include only from the ISA translation
// units.
//
// Bit-identity with the scalar reference (contract in elementwise.hpp):
//   - tanh and GELU: lanes are independent elements; tanhV() is kernelTanh()'s
//     exact sequence per lane (contractExp = softmaxExp per lane, one
//     correctly rounded division, copysign as bit operations); a ragged end
//     runs as one masked block;
//   - LayerNorm rows: lanes are independent feature columns for the
//     elementwise passes; the mean/variance/backward reductions accumulate
//     the contract's 8 strided partials as 8 / W lane accumulators combined
//     by the fixed tree, exactly like the softmax denominator.  The masked
//     tail block adds +0.0 to the partials it does not cover, which leaves
//     them unchanged (a partial that starts at +0.0 is never -0.0);
//   - parameter gradients: lanes are columns; each column's sum stays
//     ascending in the row;
//   - AdamW: lanes are independent parameters; division and sqrt are
//     correctly rounded per lane.

#include <cmath>

#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/simd_lanes.hpp"

namespace nnqs::nn::kernels::detail {

template <class S>
struct ElementwiseSimd {
  using V = typename S::V;

  /// kernelTanh() per lane: e = exp(-2|u|), (1-e)/(1+e), the sign of u.
  static V tanhV(V u) {
    const V one = S::set1(1.0);
    const V e = contractExp<S>(S::mul(S::set1(-2.0), S::abs(u)));
    return S::copysign(S::div(S::sub(one, e), S::add(one, e)), u);
  }

  /// u = kGeluC * (v + kGeluCube * v^3), the argument of both GELU tanh's.
  static V geluArg(V v, V v2) {
    return S::mul(S::set1(kGeluC),
                  S::add(v, S::mul(S::set1(kGeluCube), S::mul(v2, v))));
  }

  /// geluScalar() per lane.
  static V geluV(V v) {
    const V t = tanhV(geluArg(v, S::mul(v, v)));
    return S::mul(S::mul(S::set1(0.5), v), S::add(S::set1(1.0), t));
  }

  /// geluGradScalar() per lane.
  static V geluGradV(V v) {
    const V one = S::set1(1.0);
    const V half = S::set1(0.5);
    const V v2 = S::mul(v, v);
    const V t = tanhV(geluArg(v, v2));
    const V du = S::mul(S::set1(kGeluC), S::add(one, S::mul(S::set1(kGeluCube3), v2)));
    return S::add(S::mul(half, S::add(one, t)),
                  S::mul(S::mul(half, v), S::mul(S::sub(one, S::mul(t, t)), du)));
  }

  template <V (*F)(V)>
  static void map(const Real* x, Real* y, Index n) {
    forEachBlock<S>(n, [&](Index i, auto blk) { blk.store(y + i, F(blk.load(x + i))); });
  }

  static void tanh(const Real* x, Real* y, Index n) { map<&tanhV>(x, y, n); }
  static void gelu(const Real* x, Real* y, Index n) { map<&geluV>(x, y, n); }

  static void geluBackward(const Real* x, const Real* dy, Real* dx, Index n) {
    forEachBlock<S>(n, [&](Index i, auto blk) {
      blk.store(dx + i, S::mul(blk.load(dy + i), geluGradV(blk.load(x + i))));
    });
  }

  static void lnRowForward(const ResidualLnArgs& a, Index r) {
    const Index D = a.dim;
    const Real* x = a.x + r * D;
    const Real* src = x;
    // Pass 1: residual add fused with the mean partials (h written once).
    Partials8<S> part;
    if (a.res != nullptr) {
      const Real* res = a.res + r * D;
      Real* h = a.h + r * D;
      forEachBlock8<S>(D, [&](Index i, auto blk, auto k) {
        const V v = S::add(blk.load(x + i), blk.load(res + i));
        blk.store(h + i, v);
        part.add(k, v);
      });
      src = h;
    } else {
      forEachBlock8<S>(D, [&](Index i, auto blk, auto k) { part.add(k, blk.load(x + i)); });
    }
    const Real mean = part.sum() / static_cast<Real>(D);
    const V meanV = S::set1(mean);

    // Pass 2: variance partials.
    Partials8<S> part2;
    forEachBlock8<S>(D, [&](Index i, auto blk, auto k) {
      const V d = blk.keep(S::sub(blk.load(src + i), meanV));
      part2.add(k, S::mul(d, d));
    });
    const Real var = part2.sum() / static_cast<Real>(D);
    const Real is = 1.0 / std::sqrt(var + kLnEps);
    if (a.invStd != nullptr) a.invStd[r] = is;

    // Pass 3: normalize + affine (optionally caching xhat for backward).
    const V isV = S::set1(is);
    Real* y = a.y + r * D;
    Real* xh = a.xhat != nullptr ? a.xhat + r * D : nullptr;
    forEachBlock<S>(D, [&](Index i, auto blk) {
      const V v = S::mul(S::sub(blk.load(src + i), meanV), isV);
      if (xh != nullptr) blk.store(xh + i, v);
      blk.store(y + i, S::add(S::mul(blk.load(a.gamma + i), v), blk.load(a.beta + i)));
    });
  }

  static void lnRowBackward(const LayerNormBwdArgs& a, Index r) {
    const Index D = a.dim;
    const Real* dy = a.dy + r * D;
    const Real* xh = a.xhat + r * D;
    Partials8<S> p1, p2;
    forEachBlock8<S>(D, [&](Index i, auto blk, auto k) {
      const V dxh = S::mul(blk.load(dy + i), blk.load(a.gamma + i));
      p1.add(k, dxh);
      p2.add(k, S::mul(dxh, blk.load(xh + i)));
    });
    const V s1 = S::set1(p1.sum() / static_cast<Real>(D));
    const V s2 = S::set1(p2.sum() / static_cast<Real>(D));
    const V is = S::set1(a.invStd[r]);
    Real* dx = a.dx + r * D;
    forEachBlock<S>(D, [&](Index i, auto blk) {
      const V dxh = S::mul(blk.load(dy + i), blk.load(a.gamma + i));
      blk.store(dx + i,
                S::mul(is, S::sub(S::sub(dxh, s1), S::mul(blk.load(xh + i), s2))));
    });
  }

  /// adamwScalar() per lane; the lanes past a ragged end read +0.0 and
  /// store nothing.
  static void adamw(const AdamWArgs& a, Index off, Index len) {
    const V beta1 = S::set1(a.beta1), c1 = S::set1(1.0 - a.beta1);
    const V beta2 = S::set1(a.beta2), c2 = S::set1(1.0 - a.beta2);
    const V bc1 = S::set1(a.bc1), bc2 = S::set1(a.bc2), eps = S::set1(a.eps);
    const V lr = S::set1(a.lr), wd = S::set1(a.weightDecay);
    forEachBlock<S>(len, [&](Index j, auto blk) {
      const Index i = off + j;
      const V g = blk.load(a.grad + i);
      const V m = S::add(S::mul(beta1, blk.load(a.m + i)), S::mul(c1, g));
      const V v = S::add(S::mul(beta2, blk.load(a.v + i)), S::mul(S::mul(c2, g), g));
      blk.store(a.m + i, m);
      blk.store(a.v + i, v);
      const V w = blk.load(a.value + i);
      const V step = S::add(S::div(S::div(m, bc1), S::add(S::sqrt(S::div(v, bc2)), eps)),
                            S::mul(wd, w));
      blk.store(a.value + i, S::sub(w, S::mul(lr, step)));
      blk.store(a.grad + i, S::zero());
    });
  }

  static void lnParamGrads(const LayerNormBwdArgs& a) {
    for (Index r = 0; r < a.rows; ++r) {
      const Real* dy = a.dy + r * a.dim;
      const Real* xh = a.xhat + r * a.dim;
      forEachBlock<S>(a.dim, [&](Index i, auto blk) {
        const V dyv = blk.load(dy + i);
        blk.store(a.dgamma + i,
                  S::add(blk.load(a.dgamma + i), S::mul(dyv, blk.load(xh + i))));
        blk.store(a.dbeta + i, S::add(blk.load(a.dbeta + i), dyv));
      });
    }
  }
};

}  // namespace nnqs::nn::kernels::detail
