#pragma once

// Internal backend table of the batched Bits128 kernels (common/bits.hpp,
// namespace nnqs::batch).  Each SIMD translation unit exports a probe that
// returns its kernels when both compiled in and supported by the CPU,
// nullptr otherwise — the same runtime-dispatch pattern as
// nn/kernels/attn_row.hpp.

#include <cstddef>

#include "common/bits.hpp"

namespace nnqs::batch::detail {

using ParityFn = void (*)(const Bits128*, std::size_t, Bits128, unsigned char*);

struct Backend {
  ParityFn parityAndMask = nullptr;
  const char* name = nullptr;
};

/// AVX2 kernels; {nullptr, nullptr} when not compiled in or the CPU
/// lacks AVX2.
Backend avx2Backend();
/// AVX-512F kernels; same fallback convention.
Backend avx512Backend();

}  // namespace nnqs::batch::detail
