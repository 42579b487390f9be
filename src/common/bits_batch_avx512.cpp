// AVX-512F batched Bits128 kernels: four 128-bit samples per 512-bit vector.
//
// Restricted to the AVX512F/DQ instruction set the build enables for the
// other AVX-512 kernel files (no VPOPCNTDQ assumption — parity uses the same
// xor-shift cascade as the AVX2 kernel, twice as wide).  Pure integer ops,
// so output is structurally identical to the scalar reference.

#include "common/bits_batch_impl.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX512F__)

#include <immintrin.h>

namespace nnqs::batch::detail {

namespace {

inline __m512i maskVector(Bits128 mask) {
  return _mm512_set_epi64(
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo),
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo),
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo),
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo));
}

/// Per-64-bit-lane parity in bit 0 of each lane.
inline __m512i laneParity(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 32));
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 16));
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 8));
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 4));
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 2));
  v = _mm512_xor_si512(v, _mm512_srli_epi64(v, 1));
  return _mm512_and_si512(v, _mm512_set1_epi64(1));
}

void parityAndMaskAvx512(const Bits128* xs, std::size_t n, Bits128 mask,
                         unsigned char* out) {
  const __m512i m = maskVector(mask);
  std::size_t i = 0;
  alignas(64) std::uint64_t p[8];
  for (; i + 4 <= n; i += 4) {
    const __m512i v = _mm512_loadu_si512(xs + i);
    _mm512_store_si512(p, laneParity(_mm512_and_si512(v, m)));
    out[i] = static_cast<unsigned char>(p[0] ^ p[1]);
    out[i + 1] = static_cast<unsigned char>(p[2] ^ p[3]);
    out[i + 2] = static_cast<unsigned char>(p[4] ^ p[5]);
    out[i + 3] = static_cast<unsigned char>(p[6] ^ p[7]);
  }
  for (; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

}  // namespace

Backend avx512Backend() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0;
  if (!ok) return {};
  return {&parityAndMaskAvx512, "avx512"};
}

}  // namespace nnqs::batch::detail

#else  // compile-time fallback: non-x86 targets, old compiler, or AVX2 off

namespace nnqs::batch::detail {

Backend avx512Backend() { return {}; }

}  // namespace nnqs::batch::detail

#endif
