// AVX-512 elementwise backend.  Same arithmetic contract as the scalar
// reference and the AVX2 backend (elementwise.hpp): lanes are independent
// outputs only, FP contraction is off, tanh8() is kernelTanh() per lane, and
// the LayerNorm reductions' 8 strided partials are exactly one 8-lane
// accumulator — so the output is bit-identical.  The wider registers halve
// the instruction count of the [B, 4d] GELU sweep, the decode step's largest
// remaining elementwise stage.

#include "nn/kernels/elementwise_impl.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "nn/kernels/simd_exp.hpp"

namespace nnqs::nn::kernels::detail {

namespace {

/// kernelTanh() on 8 lanes: e = exp8(-2|u|), (1-e)/(1+e), copysign from u.
inline __m512d tanh8(__m512d u) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d uAbs = _mm512_andnot_pd(sign, u);
  const __m512d e = exp8(_mm512_mul_pd(_mm512_set1_pd(-2.0), uAbs));
  const __m512d t = _mm512_div_pd(_mm512_sub_pd(one, e), _mm512_add_pd(one, e));
  return _mm512_or_pd(t, _mm512_and_pd(sign, u));
}

/// geluScalar() on 8 lanes.
inline __m512d gelu8(__m512d v) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d v2 = _mm512_mul_pd(v, v);
  const __m512d u = _mm512_mul_pd(
      _mm512_set1_pd(kGeluC),
      _mm512_add_pd(v, _mm512_mul_pd(_mm512_set1_pd(kGeluCube),
                                     _mm512_mul_pd(v2, v))));
  const __m512d t = tanh8(u);
  return _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), v),
                       _mm512_add_pd(one, t));
}

/// geluGradScalar() on 8 lanes.
inline __m512d geluGrad8(__m512d v) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d v2 = _mm512_mul_pd(v, v);
  const __m512d u = _mm512_mul_pd(
      _mm512_set1_pd(kGeluC),
      _mm512_add_pd(v, _mm512_mul_pd(_mm512_set1_pd(kGeluCube),
                                     _mm512_mul_pd(v2, v))));
  const __m512d t = tanh8(u);
  const __m512d du = _mm512_mul_pd(
      _mm512_set1_pd(kGeluC),
      _mm512_add_pd(one, _mm512_mul_pd(_mm512_set1_pd(kGeluCube3), v2)));
  return _mm512_add_pd(
      _mm512_mul_pd(half, _mm512_add_pd(one, t)),
      _mm512_mul_pd(_mm512_mul_pd(half, v),
                    _mm512_mul_pd(_mm512_sub_pd(one, _mm512_mul_pd(t, t)), du)));
}

void tanhAvx512(const Real* x, Real* y, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(y + i, tanh8(_mm512_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = kernelTanh(x[i]);
}

void geluForwardAvx512(const Real* x, Real* y, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(y + i, gelu8(_mm512_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = geluScalar(x[i]);
}

void geluBackwardAvx512(const Real* x, const Real* dy, Real* dx, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dx + i, _mm512_mul_pd(_mm512_loadu_pd(dy + i),
                                           geluGrad8(_mm512_loadu_pd(x + i))));
  for (; i < n; ++i) dx[i] = dy[i] * geluGradScalar(x[i]);
}

void lnRowForwardAvx512(const ResidualLnArgs& a, Index r) {
  const Index D = a.dim;
  const Index blocks = D & ~Index{7};
  const Real* x = a.x + r * D;
  const Real* src = x;
  // Pass 1: one 8-lane accumulator is the contract's 8 strided partials.
  __m512d m8 = _mm512_setzero_pd();
  alignas(64) Real part[8];
  Index i = 0;
  if (a.res != nullptr) {
    const Real* res = a.res + r * D;
    Real* h = a.h + r * D;
    for (; i < blocks; i += 8) {
      const __m512d hv = _mm512_add_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(res + i));
      _mm512_storeu_pd(h + i, hv);
      m8 = _mm512_add_pd(m8, hv);
    }
    _mm512_store_pd(part, m8);
    for (; i < D; ++i) {
      const Real v = x[i] + res[i];
      h[i] = v;
      part[i & 7] += v;
    }
    src = h;
  } else {
    for (; i < blocks; i += 8) m8 = _mm512_add_pd(m8, _mm512_loadu_pd(x + i));
    _mm512_store_pd(part, m8);
    for (; i < D; ++i) part[i & 7] += x[i];
  }
  const Real mean = treeSum8(part) / static_cast<Real>(D);

  // Pass 2: variance partials.
  const __m512d mean8 = _mm512_set1_pd(mean);
  __m512d v8 = _mm512_setzero_pd();
  alignas(64) Real part2[8];
  for (i = 0; i < blocks; i += 8) {
    const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(src + i), mean8);
    v8 = _mm512_add_pd(v8, _mm512_mul_pd(d, d));
  }
  _mm512_store_pd(part2, v8);
  for (; i < D; ++i) {
    const Real d = src[i] - mean;
    part2[i & 7] += d * d;
  }
  const Real var = treeSum8(part2) / static_cast<Real>(D);
  const Real is = 1.0 / std::sqrt(var + kLnEps);
  if (a.invStd != nullptr) a.invStd[r] = is;

  // Pass 3: normalize + affine.
  const __m512d is8 = _mm512_set1_pd(is);
  Real* y = a.y + r * D;
  Real* xh = a.xhat != nullptr ? a.xhat + r * D : nullptr;
  for (i = 0; i + 8 <= D; i += 8) {
    const __m512d v = _mm512_mul_pd(_mm512_sub_pd(_mm512_loadu_pd(src + i), mean8), is8);
    if (xh != nullptr) _mm512_storeu_pd(xh + i, v);
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_mul_pd(_mm512_loadu_pd(a.gamma + i), v),
                             _mm512_loadu_pd(a.beta + i)));
  }
  for (; i < D; ++i) {
    const Real v = (src[i] - mean) * is;
    if (xh != nullptr) xh[i] = v;
    y[i] = a.gamma[i] * v + a.beta[i];
  }
}

void lnRowBackwardAvx512(const LayerNormBwdArgs& a, Index r) {
  const Index D = a.dim;
  const Index blocks = D & ~Index{7};
  const Real* dy = a.dy + r * D;
  const Real* xh = a.xhat + r * D;
  __m512d s1v = _mm512_setzero_pd(), s2v = _mm512_setzero_pd();
  alignas(64) Real p1[8], p2[8];
  Index i = 0;
  for (; i < blocks; i += 8) {
    const __m512d dxh = _mm512_mul_pd(_mm512_loadu_pd(dy + i), _mm512_loadu_pd(a.gamma + i));
    s1v = _mm512_add_pd(s1v, dxh);
    s2v = _mm512_add_pd(s2v, _mm512_mul_pd(dxh, _mm512_loadu_pd(xh + i)));
  }
  _mm512_store_pd(p1, s1v);
  _mm512_store_pd(p2, s2v);
  for (; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    p1[i & 7] += dxh;
    p2[i & 7] += dxh * xh[i];
  }
  const Real s1 = treeSum8(p1) / static_cast<Real>(D);
  const Real s2 = treeSum8(p2) / static_cast<Real>(D);
  const Real is = a.invStd[r];
  const __m512d s18 = _mm512_set1_pd(s1), s28 = _mm512_set1_pd(s2);
  const __m512d is8 = _mm512_set1_pd(is);
  Real* dx = a.dx + r * D;
  for (i = 0; i + 8 <= D; i += 8) {
    const __m512d dxh = _mm512_mul_pd(_mm512_loadu_pd(dy + i), _mm512_loadu_pd(a.gamma + i));
    const __m512d inner = _mm512_sub_pd(
        _mm512_sub_pd(dxh, s18), _mm512_mul_pd(_mm512_loadu_pd(xh + i), s28));
    _mm512_storeu_pd(dx + i, _mm512_mul_pd(is8, inner));
  }
  for (; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    dx[i] = is * ((dxh - s1) - xh[i] * s2);
  }
}

void lnParamGradsAvx512(const LayerNormBwdArgs& a) {
  for (Index r = 0; r < a.rows; ++r) {
    const Real* dy = a.dy + r * a.dim;
    const Real* xh = a.xhat + r * a.dim;
    Index i = 0;
    for (; i + 8 <= a.dim; i += 8) {
      const __m512d dyv = _mm512_loadu_pd(dy + i);
      _mm512_storeu_pd(a.dgamma + i,
                       _mm512_add_pd(_mm512_loadu_pd(a.dgamma + i),
                                     _mm512_mul_pd(dyv, _mm512_loadu_pd(xh + i))));
      _mm512_storeu_pd(a.dbeta + i,
                       _mm512_add_pd(_mm512_loadu_pd(a.dbeta + i), dyv));
    }
    for (; i < a.dim; ++i) {
      a.dgamma[i] += dy[i] * xh[i];
      a.dbeta[i] += dy[i];
    }
  }
}

constexpr EwBackend kAvx512Backend{&tanhAvx512, &geluForwardAvx512,
                                   &geluBackwardAvx512, &lnRowForwardAvx512,
                                   &lnRowBackwardAvx512, &lnParamGradsAvx512};

}  // namespace

const EwBackend* avx512EwBackend() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512dq") != 0;
  return ok ? &kAvx512Backend : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets, old compiler, or AVX2 off

namespace nnqs::nn::kernels::detail {

const EwBackend* avx512EwBackend() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
