#pragma once

// The batched AND-parity kernel (batch::parityAndMask), written once on a
// lane type (nn/kernels/simd_lanes.hpp) and instantiated per ISA through
// nn/kernels/simd_kernels.hpp: W / 2 samples per vector.  Include only from
// the ISA translation units.
//
// Each 64-bit lane folds to its parity with the xor-shift cascade (neither
// AVX2 nor AVX-512F has a vector popcount), and a sample's two lane
// parities are combined after the store.  The last samples, fewer than a
// vector, take the compiler's parity builtin (the E_loc engine calls this
// kernel on a group's few hit rows, so that tail is hot; parityAnd would be
// a shared inline function, which the ISA objects must not emit).  All
// operations are integer, so the output is structurally identical to the
// scalar reference (bits_batch.cpp).

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"

namespace nnqs::batch::detail {

template <class S>
void parityAndMaskSimd(const Bits128* xs, std::size_t n, Bits128 mask,
                       unsigned char* out) {
  constexpr std::size_t kPerVec = S::kWidth / 2;
  alignas(64) std::uint64_t m[S::kWidth], one[S::kWidth], p[S::kWidth];
  for (std::size_t k = 0; k < kPerVec; ++k) {
    m[2 * k] = mask.lo;
    m[2 * k + 1] = mask.hi;
    one[2 * k] = one[2 * k + 1] = 1;
  }
  const auto mv = S::loadBits(m);
  const auto ones = S::loadBits(one);
  std::size_t i = 0;
  for (; i + kPerVec <= n; i += kPerVec) {
    auto v = S::andBits(S::loadBits(xs + i), mv);
    v = S::xorBits(v, S::template shiftRight<32>(v));
    v = S::xorBits(v, S::template shiftRight<16>(v));
    v = S::xorBits(v, S::template shiftRight<8>(v));
    v = S::xorBits(v, S::template shiftRight<4>(v));
    v = S::xorBits(v, S::template shiftRight<2>(v));
    v = S::xorBits(v, S::template shiftRight<1>(v));
    S::storeBits(p, S::andBits(v, ones));
    for (std::size_t k = 0; k < kPerVec; ++k)
      out[i + k] = static_cast<unsigned char>(p[2 * k] ^ p[2 * k + 1]);
  }
  for (; i < n; ++i)
    out[i] = static_cast<unsigned char>(
        __builtin_parityll((xs[i].lo & mask.lo) ^ (xs[i].hi & mask.hi)));
}

}  // namespace nnqs::batch::detail
