// The AVX2 tier: every SIMD kernel family (simd_kernels.hpp) instantiated on
// Lanes4.  Built with -mavx2 -mfma -ffp-contract=off (the GEMM contract is a
// chain of fused multiply-adds).  Nothing here executes unless the cpuid
// probe reports AVX2 and FMA, so one binary still runs on pre-AVX x86; with
// NNQS_ENABLE_AVX2 off (or on a non-x86 target) the file compiles to the
// nullptr stub.

#include "nn/kernels/kernel_table.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include "nn/kernels/simd_kernels.hpp"

namespace nnqs::nn::kernels::detail {

const KernelTable* avx2Kernels() {
  static const bool ok =
      __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
  return ok ? &kSimdKernels<Lanes4> : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else

namespace nnqs::nn::kernels::detail {

const KernelTable* avx2Kernels() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
