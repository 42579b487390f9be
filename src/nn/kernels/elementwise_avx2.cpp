// AVX2-vectorized elementwise backend.
//
// Built with -mavx2 -ffp-contract=off; nothing here executes unless the
// cpuid probe in avx2EwBackend() reports AVX2 support (NNQS_ENABLE_AVX2 off
// compiles this file to just the nullptr fallback).
//
// Bit-identity with the scalar reference (contract in elementwise.hpp):
//   - GELU: lanes are 4 independent elements; tanh4() is kernelTanh()'s exact
//     sequence per lane (exp4 = softmaxExp per lane, one correctly-rounded
//     division, copysign as bit ops);
//   - LayerNorm rows: lanes are 4 independent feature columns for the
//     elementwise passes; the mean/variance reductions accumulate the
//     contract's 8 strided partials as two 4-lane accumulators combined by
//     the fixed tree, exactly like the softmax denominator in the attention
//     kernel; tail elements land in their i mod 8 buckets.

#include "nn/kernels/elementwise_impl.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "nn/kernels/simd_exp.hpp"

namespace nnqs::nn::kernels::detail {

namespace {

// No file-scope __m256d constants: a namespace-scope vector initializer would
// execute AVX instructions at static-init time even on hosts the cpuid probe
// rejects.  set1 inside the kernels is hoisted by the compiler anyway.

/// kernelTanh() on 4 lanes: e = exp4(-2|u|), (1-e)/(1+e), copysign from u.
inline __m256d tanh4(__m256d u) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d uAbs = _mm256_andnot_pd(sign, u);
  const __m256d e = exp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), uAbs));
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
  return _mm256_or_pd(t, _mm256_and_pd(sign, u));
}

/// geluScalar() on 4 lanes.
inline __m256d gelu4(__m256d v) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d v2 = _mm256_mul_pd(v, v);
  const __m256d u = _mm256_mul_pd(
      _mm256_set1_pd(kGeluC),
      _mm256_add_pd(v, _mm256_mul_pd(_mm256_set1_pd(kGeluCube),
                                     _mm256_mul_pd(v2, v))));
  const __m256d t = tanh4(u);
  return _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), v),
                       _mm256_add_pd(one, t));
}

/// geluGradScalar() on 4 lanes.
inline __m256d geluGrad4(__m256d v) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d v2 = _mm256_mul_pd(v, v);
  const __m256d u = _mm256_mul_pd(
      _mm256_set1_pd(kGeluC),
      _mm256_add_pd(v, _mm256_mul_pd(_mm256_set1_pd(kGeluCube),
                                     _mm256_mul_pd(v2, v))));
  const __m256d t = tanh4(u);
  const __m256d du = _mm256_mul_pd(
      _mm256_set1_pd(kGeluC),
      _mm256_add_pd(one, _mm256_mul_pd(_mm256_set1_pd(kGeluCube3), v2)));
  return _mm256_add_pd(
      _mm256_mul_pd(half, _mm256_add_pd(one, t)),
      _mm256_mul_pd(_mm256_mul_pd(half, v),
                    _mm256_mul_pd(_mm256_sub_pd(one, _mm256_mul_pd(t, t)), du)));
}

void tanhAvx2(const Real* x, Real* y, Index n) {
  Index i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(y + i, tanh4(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = kernelTanh(x[i]);
}

void geluForwardAvx2(const Real* x, Real* y, Index n) {
  Index i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(y + i, gelu4(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = geluScalar(x[i]);
}

void geluBackwardAvx2(const Real* x, const Real* dy, Real* dx, Index n) {
  Index i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dx + i, _mm256_mul_pd(_mm256_loadu_pd(dy + i),
                                           geluGrad4(_mm256_loadu_pd(x + i))));
  for (; i < n; ++i) dx[i] = dy[i] * geluGradScalar(x[i]);
}

void lnRowForwardAvx2(const ResidualLnArgs& a, Index r) {
  const Index D = a.dim;
  const Index blocks = D & ~Index{7};
  const Real* x = a.x + r * D;
  const Real* src = x;
  // Pass 1: the two 4-lane accumulators are the contract's partials
  // p0..p3 / p4..p7; tail elements land in their i mod 8 buckets.
  __m256d m0 = _mm256_setzero_pd(), m1 = _mm256_setzero_pd();
  alignas(32) Real part[8];
  Index i = 0;
  if (a.res != nullptr) {
    const Real* res = a.res + r * D;
    Real* h = a.h + r * D;
    for (; i < blocks; i += 8) {
      const __m256d h0 = _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(res + i));
      const __m256d h1 = _mm256_add_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(res + i + 4));
      _mm256_storeu_pd(h + i, h0);
      _mm256_storeu_pd(h + i + 4, h1);
      m0 = _mm256_add_pd(m0, h0);
      m1 = _mm256_add_pd(m1, h1);
    }
    _mm256_store_pd(part, m0);
    _mm256_store_pd(part + 4, m1);
    for (; i < D; ++i) {
      const Real v = x[i] + res[i];
      h[i] = v;
      part[i & 7] += v;
    }
    src = h;
  } else {
    for (; i < blocks; i += 8) {
      m0 = _mm256_add_pd(m0, _mm256_loadu_pd(x + i));
      m1 = _mm256_add_pd(m1, _mm256_loadu_pd(x + i + 4));
    }
    _mm256_store_pd(part, m0);
    _mm256_store_pd(part + 4, m1);
    for (; i < D; ++i) part[i & 7] += x[i];
  }
  const Real mean = treeSum8(part) / static_cast<Real>(D);

  // Pass 2: variance partials.
  const __m256d mean4 = _mm256_set1_pd(mean);
  __m256d v0 = _mm256_setzero_pd(), v1 = _mm256_setzero_pd();
  alignas(32) Real part2[8];
  for (i = 0; i < blocks; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(src + i), mean4);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(src + i + 4), mean4);
    v0 = _mm256_add_pd(v0, _mm256_mul_pd(d0, d0));
    v1 = _mm256_add_pd(v1, _mm256_mul_pd(d1, d1));
  }
  _mm256_store_pd(part2, v0);
  _mm256_store_pd(part2 + 4, v1);
  for (; i < D; ++i) {
    const Real d = src[i] - mean;
    part2[i & 7] += d * d;
  }
  const Real var = treeSum8(part2) / static_cast<Real>(D);
  const Real is = 1.0 / std::sqrt(var + kLnEps);
  if (a.invStd != nullptr) a.invStd[r] = is;

  // Pass 3: normalize + affine; lanes are independent feature columns.
  const __m256d is4 = _mm256_set1_pd(is);
  Real* y = a.y + r * D;
  Real* xh = a.xhat != nullptr ? a.xhat + r * D : nullptr;
  for (i = 0; i + 4 <= D; i += 4) {
    const __m256d v = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(src + i), mean4), is4);
    if (xh != nullptr) _mm256_storeu_pd(xh + i, v);
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(a.gamma + i), v),
                             _mm256_loadu_pd(a.beta + i)));
  }
  for (; i < D; ++i) {
    const Real v = (src[i] - mean) * is;
    if (xh != nullptr) xh[i] = v;
    y[i] = a.gamma[i] * v + a.beta[i];
  }
}

void lnRowBackwardAvx2(const LayerNormBwdArgs& a, Index r) {
  const Index D = a.dim;
  const Index blocks = D & ~Index{7};
  const Real* dy = a.dy + r * D;
  const Real* xh = a.xhat + r * D;
  __m256d s10 = _mm256_setzero_pd(), s11 = _mm256_setzero_pd();
  __m256d s20 = _mm256_setzero_pd(), s21 = _mm256_setzero_pd();
  alignas(32) Real p1[8], p2[8];
  Index i = 0;
  for (; i < blocks; i += 8) {
    const __m256d d0 = _mm256_mul_pd(_mm256_loadu_pd(dy + i), _mm256_loadu_pd(a.gamma + i));
    const __m256d d1 = _mm256_mul_pd(_mm256_loadu_pd(dy + i + 4), _mm256_loadu_pd(a.gamma + i + 4));
    s10 = _mm256_add_pd(s10, d0);
    s11 = _mm256_add_pd(s11, d1);
    s20 = _mm256_add_pd(s20, _mm256_mul_pd(d0, _mm256_loadu_pd(xh + i)));
    s21 = _mm256_add_pd(s21, _mm256_mul_pd(d1, _mm256_loadu_pd(xh + i + 4)));
  }
  _mm256_store_pd(p1, s10);
  _mm256_store_pd(p1 + 4, s11);
  _mm256_store_pd(p2, s20);
  _mm256_store_pd(p2 + 4, s21);
  for (; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    p1[i & 7] += dxh;
    p2[i & 7] += dxh * xh[i];
  }
  const Real s1 = treeSum8(p1) / static_cast<Real>(D);
  const Real s2 = treeSum8(p2) / static_cast<Real>(D);
  const Real is = a.invStd[r];
  const __m256d s14 = _mm256_set1_pd(s1), s24 = _mm256_set1_pd(s2);
  const __m256d is4 = _mm256_set1_pd(is);
  Real* dx = a.dx + r * D;
  for (i = 0; i + 4 <= D; i += 4) {
    const __m256d dxh = _mm256_mul_pd(_mm256_loadu_pd(dy + i), _mm256_loadu_pd(a.gamma + i));
    const __m256d inner = _mm256_sub_pd(
        _mm256_sub_pd(dxh, s14), _mm256_mul_pd(_mm256_loadu_pd(xh + i), s24));
    _mm256_storeu_pd(dx + i, _mm256_mul_pd(is4, inner));
  }
  for (; i < D; ++i) {
    const Real dxh = dy[i] * a.gamma[i];
    dx[i] = is * ((dxh - s1) - xh[i] * s2);
  }
}

void lnParamGradsAvx2(const LayerNormBwdArgs& a) {
  // Columns are independent lanes; each column's sum stays ascending in r.
  for (Index r = 0; r < a.rows; ++r) {
    const Real* dy = a.dy + r * a.dim;
    const Real* xh = a.xhat + r * a.dim;
    Index i = 0;
    for (; i + 4 <= a.dim; i += 4) {
      const __m256d dyv = _mm256_loadu_pd(dy + i);
      _mm256_storeu_pd(a.dgamma + i,
                       _mm256_add_pd(_mm256_loadu_pd(a.dgamma + i),
                                     _mm256_mul_pd(dyv, _mm256_loadu_pd(xh + i))));
      _mm256_storeu_pd(a.dbeta + i,
                       _mm256_add_pd(_mm256_loadu_pd(a.dbeta + i), dyv));
    }
    for (; i < a.dim; ++i) {
      a.dgamma[i] += dy[i] * xh[i];
      a.dbeta[i] += dy[i];
    }
  }
}

constexpr EwBackend kAvx2Backend{&tanhAvx2, &geluForwardAvx2,
                                 &geluBackwardAvx2, &lnRowForwardAvx2,
                                 &lnRowBackwardAvx2, &lnParamGradsAvx2};

}  // namespace

const EwBackend* avx2EwBackend() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok ? &kAvx2Backend : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets or -DNNQS_ENABLE_AVX2=OFF

namespace nnqs::nn::kernels::detail {

const EwBackend* avx2EwBackend() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
