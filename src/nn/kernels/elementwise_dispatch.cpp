// Elementwise-kernel policy resolution and the serial / OpenMP-threaded
// drivers: disjoint element chunks for the tanh, GELU and AdamW sweeps,
// disjoint rows for the fused residual + LayerNorm kernels.  Chunk and row
// boundaries cannot perturb results (every output element's operation
// sequence is local to its chunk/row), so the threaded backend is trivially
// bit-identical.

#include <algorithm>
#include <cassert>

#include "nn/kernels/kernel_table.hpp"

namespace nnqs::nn::kernels {

namespace {

/// Below this many elements the fork/join overhead of the threaded driver
/// exceeds the sweep work (GELU is ~20 FLOPs/element, so this is a smaller
/// threshold than the GEMM one).
constexpr Index kEwThreadWork = Index{1} << 14;

/// Element chunk of the threaded GELU driver: big enough to amortize the
/// loop, small enough to load-balance ragged sizes.
constexpr Index kEwChunk = Index{1} << 12;

template <typename RangeFn>
void runChunked(KernelPolicy policy, Index n, const RangeFn& fn) {
  if (policy == KernelPolicy::kThreaded && n > kEwChunk) {
    const Index chunks = (n + kEwChunk - 1) / kEwChunk;
#pragma omp parallel for schedule(static)
    for (Index c = 0; c < chunks; ++c) {
      const Index off = c * kEwChunk;
      fn(off, std::min(kEwChunk, n - off));
    }
  } else {
    fn(Index{0}, n);
  }
}

}  // namespace

KernelPolicy resolveElementwisePolicy(KernelPolicy policy, Index work) {
  if (policy != KernelPolicy::kAuto) return policy;
  return work > kEwThreadWork ? KernelPolicy::kThreaded : KernelPolicy::kSimd;
}

void tanh(const Real* x, Real* y, Index n, KernelPolicy policy) {
  detail::tanh(x, y, n, policy, detail::hostKernels());
}

void gelu(const Real* x, Real* y, Index n, KernelPolicy policy) {
  detail::gelu(x, y, n, policy, detail::hostKernels());
}

void geluBackward(const Real* x, const Real* dy, Real* dx, Index n,
                  KernelPolicy policy) {
  detail::geluBackward(x, dy, dx, n, policy, detail::hostKernels());
}

void residualLayerNorm(const ResidualLnArgs& a, KernelPolicy policy) {
  detail::residualLayerNorm(a, policy, detail::hostKernels());
}

void layerNormBackward(const LayerNormBwdArgs& a, KernelPolicy policy) {
  detail::layerNormBackward(a, policy, detail::hostKernels());
}

void adamw(const AdamWArgs& a, KernelPolicy policy) {
  detail::adamw(a, policy, detail::hostKernels());
}

namespace detail {

void tanh(const Real* x, Real* y, Index n, KernelPolicy policy, const KernelTable& tier) {
  if (n <= 0) return;
  policy = resolveElementwisePolicy(policy, n);
  const auto fn = tierFor(policy, tier).tanh;
  runChunked(policy, n, [&](Index off, Index len) { fn(x + off, y + off, len); });
}

void gelu(const Real* x, Real* y, Index n, KernelPolicy policy, const KernelTable& tier) {
  if (n <= 0) return;
  policy = resolveElementwisePolicy(policy, n);
  const auto fn = tierFor(policy, tier).gelu;
  runChunked(policy, n, [&](Index off, Index len) { fn(x + off, y + off, len); });
}

void geluBackward(const Real* x, const Real* dy, Real* dx, Index n,
                  KernelPolicy policy, const KernelTable& tier) {
  if (n <= 0) return;
  policy = resolveElementwisePolicy(policy, n);
  const auto fn = tierFor(policy, tier).geluBackward;
  runChunked(policy, n,
             [&](Index off, Index len) { fn(x + off, dy + off, dx + off, len); });
}

void residualLayerNorm(const ResidualLnArgs& a, KernelPolicy policy,
                       const KernelTable& tier) {
  if (a.rows <= 0 || a.dim <= 0) return;
  assert((a.res == nullptr) == (a.h == nullptr) &&
         "residualLayerNorm: res and h go together");
  policy = resolveElementwisePolicy(policy, a.rows * a.dim);
  const auto row = tierFor(policy, tier).lnRowForward;
  if (policy == KernelPolicy::kThreaded && a.rows > 1) {
#pragma omp parallel for schedule(static)
    for (Index r = 0; r < a.rows; ++r) row(a, r);
  } else {
    for (Index r = 0; r < a.rows; ++r) row(a, r);
  }
}

void layerNormBackward(const LayerNormBwdArgs& a, KernelPolicy policy,
                       const KernelTable& tier) {
  if (a.rows <= 0 || a.dim <= 0) return;
  policy = resolveElementwisePolicy(policy, a.rows * a.dim);
  const KernelTable& k = tierFor(policy, tier);
  // Param grads first: shared ascending-row accumulators, serial by contract.
  k.lnParamGrads(a);
  if (policy == KernelPolicy::kThreaded && a.rows > 1) {
#pragma omp parallel for schedule(static)
    for (Index r = 0; r < a.rows; ++r) k.lnRowBackward(a, r);
  } else {
    for (Index r = 0; r < a.rows; ++r) k.lnRowBackward(a, r);
  }
}

void adamw(const AdamWArgs& a, KernelPolicy policy, const KernelTable& tier) {
  if (a.n <= 0) return;
  policy = resolveElementwisePolicy(policy, a.n);
  const auto fn = tierFor(policy, tier).adamw;
  runChunked(policy, a.n, [&](Index off, Index len) { fn(a, off, len); });
}

}  // namespace detail

}  // namespace nnqs::nn::kernels
