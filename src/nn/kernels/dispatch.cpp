// The kernel tiers (the scalar table and the host's pick among the ISA
// tables), kernel-policy resolution, and the serial / OpenMP-threaded
// drivers over the per-row decode-attention kernels and the per-sample
// training-attention kernels.

#include <sys/mman.h>

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "nn/kernels/kernel_table.hpp"

namespace nnqs::nn::kernels {

namespace {
/// Below this many (row, head) tiles the fork/join overhead of the threaded
/// driver exceeds the tile work (matches the historical `batch * heads > 8`
/// OpenMP if-clause of the pre-kernel decodeStep).
constexpr Index kMinTilesForThreads = 8;

/// Per-thread kernel scratch, kept across calls like the GEMM pack buffer:
/// each thread grows its own buffer once, so warm decode steps and training
/// tiles (one attention call per layer each) make no heap allocation.  The
/// span starts on a cache line: the SIMD bodies' scratch rows are whole
/// multiples of 8 Reals, so their vector accesses then never split a line.
Real* threadScratch(std::size_t len) {
  constexpr std::size_t kLineReals = 64 / sizeof(Real);
  static thread_local std::vector<Real> buf;
  if (buf.size() < len + kLineReals) buf.resize(len + kLineReals);
  const auto p = reinterpret_cast<std::uintptr_t>(buf.data());
  return reinterpret_cast<Real*>((p + 63) & ~std::uintptr_t{63});
}

/// Run fn(b, scratch) for b in [0, batch): serially, or over the OpenMP
/// team (rows/samples write disjoint outputs, so the split cannot change a
/// bit).  The team is the default size: a num_threads clause varying per
/// call would make the runtime grow/shrink its pool, orphaning the
/// thread_local scratch.
template <class Fn>
void forEachRow(bool threaded, Index batch, std::size_t scratchLen, const Fn& fn) {
  if (threaded) {
#pragma omp parallel
    {
      Real* scratch = threadScratch(scratchLen);
#pragma omp for schedule(static)
      for (Index b = 0; b < batch; ++b) fn(b, scratch);
    }
  } else {
    Real* scratch = threadScratch(scratchLen);
    for (Index b = 0; b < batch; ++b) fn(b, scratch);
  }
}

bool runsThreaded(KernelPolicy resolved, Index batch, Index heads) {
  return resolved == KernelPolicy::kThreaded && batch * heads > kMinTilesForThreads;
}

void runTrain(const AttnTrainArgs& a, KernelPolicy policy, const detail::KernelTable& tier,
              detail::TrainFn detail::KernelTable::*which) {
  if (a.batch <= 0) return;
  assert(a.heads * a.headDim == a.dModel);
  policy = resolvePolicy(policy, a.batch, a.heads);
  const detail::TrainFn fn = detail::tierFor(policy, tier).*which;
  forEachRow(runsThreaded(policy, a.batch, a.heads), a.batch,
             detail::trainScratchLen(a.window, a.headDim),
             [&](Index b, Real* scratch) { fn(a, b, scratch); });
}

constexpr detail::KernelTable kScalarKernels{
    "scalar",
    &detail::scalarRow,
    &detail::trainForwardScalar,
    &detail::trainBackwardScalar,
    detail::kScalarNr,
    &detail::scalarPanel,
    &detail::gemmReference<void>,
    &detail::tanhScalar,
    &detail::geluForwardScalar,
    &detail::geluBackwardScalar,
    &detail::lnRowForwardScalar,
    &detail::lnRowBackwardScalar,
    &detail::lnParamGradsScalar,
    &detail::adamwScalar,
    &batch::parityAndMaskScalar,
};
}  // namespace

namespace detail {

const KernelTable& scalarKernels() { return kScalarKernels; }

const KernelTable& hostKernels() {
  static const KernelTable* const tier = [] {
    if (const KernelTable* t = avx512Kernels()) return t;
    if (const KernelTable* t = avx2Kernels()) return t;
    return &kScalarKernels;
  }();
  return *tier;
}

std::vector<const KernelTable*> hostTiers() {
  std::vector<const KernelTable*> tiers{&kScalarKernels};
  for (const KernelTable* t : {avx2Kernels(), avx512Kernels()})
    if (t != nullptr) tiers.push_back(t);
  return tiers;
}

void decodeAttention(const DecodeAttnArgs& a, KernelPolicy policy, const KernelTable& tier) {
  if (a.batch <= 0) return;
  assert(a.heads * a.headDim == a.dModel);
  assert(a.pos >= 0 && a.pos < a.maxLen);
  policy = resolvePolicy(policy, a.batch, a.heads);
  const RowFn row = tierFor(policy, tier).decodeRow;

  // Per-head e_j arrays plus one rinv per head (attn_row.hpp scratch layout).
  const auto scratchLen =
      static_cast<std::size_t>(a.heads * (a.pos + 1) + a.heads);
  forEachRow(runsThreaded(policy, a.batch, a.heads), a.batch, scratchLen,
             [&](Index b, Real* scratch) { row(a, b, scratch); });
}

void attnTrainForward(const AttnTrainArgs& a, KernelPolicy policy, const KernelTable& tier) {
  runTrain(a, policy, tier, &KernelTable::trainForward);
}

void attnTrainBackward(const AttnTrainArgs& a, KernelPolicy policy, const KernelTable& tier) {
  runTrain(a, policy, tier, &KernelTable::trainBackward);
}

}  // namespace detail

bool simdAvailable() { return &detail::hostKernels() != &kScalarKernels; }

const char* kernelPolicyName(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kAuto: return "auto";
    case KernelPolicy::kScalar: return "scalar";
    case KernelPolicy::kSimd: return "simd";
    case KernelPolicy::kThreaded: return "threaded";
  }
  return "unknown";
}

const char* effectiveKernelName(KernelPolicy policy) {
  if (policy == KernelPolicy::kScalar) return "scalar";
  const bool simd = simdAvailable();
  switch (policy) {
    case KernelPolicy::kSimd: return simd ? "simd" : "scalar";
    case KernelPolicy::kThreaded: return simd ? "threaded" : "omp-sclr";
    case KernelPolicy::kAuto: return simd ? "auto-simd" : "auto-sclr";
    default: return "unknown";
  }
}

void adviseHugePages([[maybe_unused]] const void* p,
                     [[maybe_unused]] std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Align inward to whole pages; madvise is advisory, failures are fine.
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t kPage = 4096;
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#endif
}

namespace {
/// The whole HugeBuffer pages that hold `count` Reals.
std::size_t mappedBytes(std::size_t count) {
  return (count * sizeof(Real) + HugeBuffer::kPageBytes - 1) & ~(HugeBuffer::kPageBytes - 1);
}
}  // namespace

HugeBuffer::~HugeBuffer() {
  if (p_ != nullptr) munmap(p_, mappedBytes(n_));
}

void HugeBuffer::assignZero(std::size_t count) {
  HugeBuffer().swap(*this);  // unmaps the previous pages
  if (count == 0) return;
  // The buffer maps its own pages rather than take them from malloc, whose
  // mmap threshold moves with what was freed before: map one page more than
  // needed, then unmap the head and tail around the aligned range.
  const std::size_t bytes = mappedBytes(count);
  void* raw = mmap(nullptr, bytes + kPageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto lo = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (lo + kPageBytes - 1) & ~(kPageBytes - 1);
  if (aligned > lo) munmap(raw, aligned - lo);
  munmap(reinterpret_cast<void*>(aligned + bytes), lo + kPageBytes - aligned);
  p_ = reinterpret_cast<Real*>(aligned);
  adviseHugePages(p_, bytes);  // before the memset faults the pages in
  std::memset(p_, 0, bytes);
  n_ = count;
}

KernelPolicy resolvePolicy(KernelPolicy policy, Index batch, Index heads) {
  if (policy != KernelPolicy::kAuto) return policy;
  return batch * heads > kMinTilesForThreads ? KernelPolicy::kThreaded
                                             : KernelPolicy::kSimd;
}

void decodeAttention(const DecodeAttnArgs& a, KernelPolicy policy) {
  detail::decodeAttention(a, policy, detail::hostKernels());
}

void attnTrainForward(const AttnTrainArgs& a, KernelPolicy policy) {
  detail::attnTrainForward(a, policy, detail::hostKernels());
}

void attnTrainBackward(const AttnTrainArgs& a, KernelPolicy policy) {
  detail::attnTrainBackward(a, policy, detail::hostKernels());
}

}  // namespace nnqs::nn::kernels
