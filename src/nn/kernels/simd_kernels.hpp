#pragma once

// One ISA tier's kernel table: every SIMD kernel family, each written once
// on the lane type S (simd_lanes.hpp), instantiated into a KernelTable
// (kernel_table.hpp).  Include only from the ISA translation units,
// simd_avx2.cpp and simd_avx512.cpp, which export their tier's table behind
// one cpuid probe each.

#include "common/bits_batch_simd.hpp"
#include "nn/kernels/attn_decode_simd.hpp"
#include "nn/kernels/attn_train_simd.hpp"
#include "nn/kernels/elementwise_simd.hpp"
#include "nn/kernels/gemm_simd.hpp"
#include "nn/kernels/kernel_table.hpp"

namespace nnqs::nn::kernels::detail {

template <class S>
constexpr KernelTable kSimdKernels{
    S::kName,
    &DecodeAttnSimd<S>::row,
    &AttnTrainSimd<S>::forward,
    &AttnTrainSimd<S>::backward,
    GemmSimd<S>::kNr,
    &GemmSimd<S>::panel,
    &gemmReference<S>,
    &ElementwiseSimd<S>::tanh,
    &ElementwiseSimd<S>::gelu,
    &ElementwiseSimd<S>::geluBackward,
    &ElementwiseSimd<S>::lnRowForward,
    &ElementwiseSimd<S>::lnRowBackward,
    &ElementwiseSimd<S>::lnParamGrads,
    &ElementwiseSimd<S>::adamw,
    &batch::detail::parityAndMaskSimd<S>,
};

}  // namespace nnqs::nn::kernels::detail
