// AVX2 batched Bits128 kernels: two 128-bit samples per 256-bit vector.
//
// Built with -mavx2; nothing here executes unless the cpuid probe in
// avx2Backend() reports AVX2 support (NNQS_ENABLE_AVX2 off compiles this file
// to just the empty fallback).  All operations are integer (AND, XOR, shift),
// so bit-identity with the scalar reference in bits_batch.cpp is structural.
//
// The AND-parity kernel folds each 64-bit lane to its parity with the
// classic xor-shift cascade (no AVX2 vector popcount exists); the two lane
// parities of a sample are combined after the store.

#include "common/bits_batch_impl.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace nnqs::batch::detail {

namespace {

/// Per-64-bit-lane parity in bit 0 of each lane.
inline __m256i laneParity(__m256i v) {
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 32));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 16));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 8));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 4));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 2));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 1));
  return _mm256_and_si256(v, _mm256_set1_epi64x(1));
}

void parityAndMaskAvx2(const Bits128* xs, std::size_t n, Bits128 mask,
                       unsigned char* out) {
  const __m256i m = _mm256_set_epi64x(
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo),
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo));
  std::size_t i = 0;
  alignas(32) std::uint64_t p[4];
  for (; i + 2 <= n; i += 2) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(p),
                       laneParity(_mm256_and_si256(v, m)));
    out[i] = static_cast<unsigned char>(p[0] ^ p[1]);
    out[i + 1] = static_cast<unsigned char>(p[2] ^ p[3]);
  }
  for (; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

}  // namespace

Backend avx2Backend() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  if (!ok) return {};
  return {&parityAndMaskAvx2, "avx2"};
}

}  // namespace nnqs::batch::detail

#else  // compile-time fallback: non-x86 targets or -DNNQS_ENABLE_AVX2=OFF

namespace nnqs::batch::detail {

Backend avx2Backend() { return {}; }

}  // namespace nnqs::batch::detail

#endif
