// GEMM policy resolution and the blocked driver over the panel micro-
// kernels: C initialization (bias / accumulate / zero), k-strip blocking,
// B packed per strip or, for few-row problems, read in place, and the OpenMP
// tiling loop over (row block, panel) tiles (disjoint C sub-blocks, so the
// threaded backend is trivially bit-identical).

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "nn/kernels/kernel_table.hpp"

namespace nnqs::nn::kernels {

namespace {

/// Above this m*n*k the fork/join overhead of the threaded driver is paid
/// back.  Deliberately unified upward from the historical if-clauses (the
/// naive Linear threaded above 1<<15, linalg::matmul above 1<<16): the
/// blocked kernel clears sub-1<<16 problems in well under the fork/join
/// cost, so the old lower Linear threshold would only add overhead.
constexpr Index kGemmThreadWork = Index{1} << 16;

/// k-strip depth: bounds the packed buffer at ~kKc * n doubles and keeps a
/// panel (kKc * nr reals) L2-resident.  Strip boundaries are exact: each C
/// element's sum resumes from its stored partial, preserving the contract's
/// sequential k-order.
constexpr Index kKc = 384;

/// Row-block height of the OpenMP tiling loop: an MR-blocked sweep of one
/// block re-reads its packed panel from L2 while the A rows stay hot.
constexpr Index kMc = 64;

/// At or below this many rows, B is read in place instead of packed.  The
/// sweep reads each B element once per register block (MR = 8 rows on
/// AVX-512, so one block up to here; MR = 6 on AVX2, two), so packing (a
/// full copy of B, on the calling thread, every call) costs more than the
/// strided loads or gathers it saves.  BM_LinearGemm and BM_LinearGemmDx at
/// the phase MLP's 512 x 512 layer set the value (measured with a 4-row
/// mul-then-add block): in place wins both at 1-8 rows, ties the gathered
/// forward at 16 and loses it 1.9x at 64.
constexpr Index kInPlaceRows = 8;

/// C[i,j] = init_ij: bias row, untouched accumulator, or zero.  cZeroed
/// callers already hold a value-initialized C, so re-zeroing it here was a
/// pure double fill (and a bias-mode destination, such as an uninitialized
/// tape carve, needs no fill at all).
void initC(const GemmArgs& g) {
  if (g.bias != nullptr) {
    for (Index i = 0; i < g.m; ++i)
      std::memcpy(g.c + i * g.ldc, g.bias, static_cast<std::size_t>(g.n) * sizeof(Real));
  } else if (!g.accumulate && !g.cZeroed) {
    for (Index i = 0; i < g.m; ++i)
      std::memset(g.c + i * g.ldc, 0, static_cast<std::size_t>(g.n) * sizeof(Real));
  }
}

/// The blocked path shared by kSimd and kThreaded: per k-strip, pack B into
/// nr-wide panels (or, for few rows, view it in place), then sweep row
/// blocks x panels.
void gemmBlocked(const GemmArgs& g, const detail::KernelTable& tier, bool threaded) {
  const Index nr = tier.gemmNr;
  const Index nPanels = (g.n + nr - 1) / nr;
  const Index rowBlocks = (g.m + kMc - 1) / kMc;
  const bool inPlace = g.m <= kInPlaceRows;
  // Per-thread scratch reused across calls: the decode path runs 4+ Linears
  // per layer per step, and a fresh zero-filled allocation each time would be
  // exactly the per-step churn this backend exists to remove.  Kernels read
  // only the lanes the pack loop below wrote, so stale contents are
  // harmless.  OpenMP workers only *read* the packed panels; packing happens
  // on the calling thread.
  static thread_local std::vector<Real> packedScratch;
  const auto need = static_cast<std::size_t>(nPanels * nr * std::min(kKc, g.k));
  if (!inPlace && packedScratch.size() < need) packedScratch.resize(need);
  Real* const packed = packedScratch.data();  // the calling thread's scratch

  for (Index l0 = 0; l0 < g.k; l0 += kKc) {
    const Index lc = std::min(kKc, g.k - l0);
    // Pack: pure copies into [lc][nr] panels; lanes >= w stay unwritten.
    if (!inPlace)
      for (Index p = 0; p < nPanels; ++p) {
        const Index j0 = p * nr;
        const Index w = std::min(nr, g.n - j0);
        Real* bp = packed + p * lc * nr;
        for (Index l = 0; l < lc; ++l)
          for (Index jj = 0; jj < w; ++jj) bp[l * nr + jj] = detail::gemmB(g, l0 + l, j0 + jj);
      }
    // Sweep: a tile = (row block, panel) owns a disjoint C sub-block, so
    // tiles parallelize freely; flattening both dimensions keeps tall-skinny
    // problems (few row blocks, many panels — the matmulTN Gram shapes) and
    // short-wide ones equally well supplied with parallel work.
    const Index tiles = rowBlocks * nPanels;
#pragma omp parallel for schedule(static) if (threaded && tiles > 1)
    for (Index t = 0; t < tiles; ++t) {
      const Index ib = t / nPanels, p = t % nPanels;
      const Index i0 = ib * kMc;
      const Index j0 = p * nr;
      const detail::PanelB b = !inPlace ? detail::PanelB{packed + p * lc * nr, nr, 1}
                               : g.transB ? detail::PanelB{g.b + j0 * g.ldb + l0, 1, g.ldb}
                                          : detail::PanelB{g.b + l0 * g.ldb + j0, g.ldb, 1};
      tier.gemmPanel(g, i0, std::min(kMc, g.m - i0), l0, lc, b, j0, std::min(nr, g.n - j0));
    }
  }
}

}  // namespace

KernelPolicy resolveGemmPolicy(KernelPolicy policy, Index m, Index n, Index k) {
  if (policy != KernelPolicy::kAuto) return policy;
  return m * n * k > kGemmThreadWork ? KernelPolicy::kThreaded
                                     : KernelPolicy::kSimd;
}

void gemm(const GemmArgs& g, KernelPolicy policy) {
  detail::gemm(g, policy, detail::hostKernels());
}

void detail::gemm(const GemmArgs& g, KernelPolicy policy, const KernelTable& tier) {
  assert(!(g.bias != nullptr && g.accumulate) &&
         "gemm: bias and accumulate are exclusive init modes");
  if (g.m <= 0 || g.n <= 0) return;
  initC(g);
  if (g.k <= 0) return;  // C = init only

  policy = resolveGemmPolicy(policy, g.m, g.n, g.k);
  if (policy == KernelPolicy::kScalar) {
    tier.gemmRef(g);
    return;
  }
  gemmBlocked(g, tier, policy == KernelPolicy::kThreaded);
}

}  // namespace nnqs::nn::kernels
