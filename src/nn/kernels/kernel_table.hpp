#pragma once

// Internal header of the kernel backends: the one kernel table every
// dispatcher picks its kernels from.  A table is one tier — the scalar
// references, or one ISA (simd_avx2.cpp, simd_avx512.cpp, each the lane-
// templated family bodies of simd_kernels.hpp instantiated on its lane type)
// — and holds every kernel family: decode attention, training attention,
// the GEMM panel, the elementwise kernels and the batched parity kernel.
// The dispatchers (dispatch.cpp, gemm_dispatch.cpp, elementwise_dispatch.cpp,
// common/bits_batch.cpp) keep the threading, packing and chunking drivers.

#include <cstddef>
#include <vector>

#include "common/bits.hpp"
#include "nn/kernels/attn_row.hpp"
#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/gemm_micro.hpp"

namespace nnqs::nn::kernels::detail {

struct KernelTable {
  const char* name;  ///< "scalar", "avx2" or "avx512"
  RowFn decodeRow;
  TrainFn trainForward;
  TrainFn trainBackward;
  Index gemmNr;  ///< GEMM panel width, the B packing granularity
  GemmPanelFn gemmPanel;
  /// The naive GEMM reference kScalar runs, compiled for this tier's ISA.
  GemmReferenceFn gemmRef;
  /// Elementwise ranges; callable on any contiguous sub-range (the threaded
  /// driver chunks them; chunk boundaries cannot perturb elementwise results).
  void (*tanh)(const Real* x, Real* y, Index n);
  void (*gelu)(const Real* x, Real* y, Index n);
  void (*geluBackward)(const Real* x, const Real* dy, Real* dx, Index n);
  /// LayerNorm row r of the problem (rows are independent), except
  /// lnParamGrads, which owns the whole serial ascending-row accumulation of
  /// dgamma/dbeta.
  void (*lnRowForward)(const ResidualLnArgs& a, Index r);
  void (*lnRowBackward)(const LayerNormBwdArgs& a, Index r);
  void (*lnParamGrads)(const LayerNormBwdArgs& a);
  /// Elements [off, off + len) of the AdamW update (any sub-range, like the
  /// elementwise ranges above).
  void (*adamw)(const AdamWArgs& a, Index off, Index len);
  void (*parityAndMask)(const Bits128* xs, std::size_t n, Bits128 mask,
                        unsigned char* out);
};

/// The scalar references as a table: what kScalar runs, and the tier of a
/// host (or build) without SIMD support.
const KernelTable& scalarKernels();
/// The ISA tiers, or nullptr when not compiled in or not supported by the
/// CPU (one cpuid probe in each ISA translation unit).
const KernelTable* avx2Kernels();
const KernelTable* avx512Kernels();
/// The tier kSimd, kThreaded and kAuto run on this host: AVX-512, else
/// AVX2, else scalar.
const KernelTable& hostKernels();
/// Every tier this host runs, scalar first.
std::vector<const KernelTable*> hostTiers();

/// The kernels `policy` runs given a tier: the scalar references under
/// kScalar, the tier's otherwise.
inline const KernelTable& tierFor(KernelPolicy policy, const KernelTable& tier) {
  return policy == KernelPolicy::kScalar ? scalarKernels() : tier;
}

/// The kernel entry points of kernels.hpp, gemm.hpp and elementwise.hpp with
/// the tier given: the public overloads pass hostKernels(), and the
/// tolerance-0 tests pass every tier in hostTiers().
void decodeAttention(const DecodeAttnArgs& args, KernelPolicy policy,
                     const KernelTable& tier);
void attnTrainForward(const AttnTrainArgs& args, KernelPolicy policy,
                      const KernelTable& tier);
void attnTrainBackward(const AttnTrainArgs& args, KernelPolicy policy,
                       const KernelTable& tier);
void gemm(const GemmArgs& args, KernelPolicy policy, const KernelTable& tier);
void tanh(const Real* x, Real* y, Index n, KernelPolicy policy,
          const KernelTable& tier);
void gelu(const Real* x, Real* y, Index n, KernelPolicy policy,
          const KernelTable& tier);
void geluBackward(const Real* x, const Real* dy, Real* dx, Index n,
                  KernelPolicy policy, const KernelTable& tier);
void residualLayerNorm(const ResidualLnArgs& args, KernelPolicy policy,
                       const KernelTable& tier);
void layerNormBackward(const LayerNormBwdArgs& args, KernelPolicy policy,
                       const KernelTable& tier);
void adamw(const AdamWArgs& args, KernelPolicy policy, const KernelTable& tier);

/// The scalar elementwise references (elementwise_scalar.cpp).
void tanhScalar(const Real* x, Real* y, Index n);
void geluForwardScalar(const Real* x, Real* y, Index n);
void geluBackwardScalar(const Real* x, const Real* dy, Real* dx, Index n);
void lnRowForwardScalar(const ResidualLnArgs& a, Index r);
void lnRowBackwardScalar(const LayerNormBwdArgs& a, Index r);
void lnParamGradsScalar(const LayerNormBwdArgs& a);
void adamwScalar(const AdamWArgs& a, Index off, Index len);

}  // namespace nnqs::nn::kernels::detail
