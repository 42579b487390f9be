// The AVX-512 tier: every SIMD kernel family (simd_kernels.hpp) instantiated
// on Lanes8.  Built with -mavx512f -mavx512dq -ffp-contract=off.  Nothing
// here executes unless the cpuid probe reports AVX-512F and AVX-512DQ; with
// NNQS_ENABLE_AVX2 off, a compiler without the flags, or a non-x86 target
// the file compiles to the nullptr stub.

#include "nn/kernels/kernel_table.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include "nn/kernels/simd_kernels.hpp"

namespace nnqs::nn::kernels::detail {

const KernelTable* avx512Kernels() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512dq") != 0;
  return ok ? &kSimdKernels<Lanes8> : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else

namespace nnqs::nn::kernels::detail {

const KernelTable* avx512Kernels() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
