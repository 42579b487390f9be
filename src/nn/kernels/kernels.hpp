#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/types.hpp"
#include "exec/policy.hpp"

namespace nnqs::nn::kernels {

/// Which decode-attention kernel backend runs `CausalSelfAttention::decodeStep`
/// (enumerators in exec/policy.hpp, the consolidated ExecutionPolicy home).
///
/// All backends are **bit-identical**: they follow one fixed arithmetic
/// contract (see `attnRowScalar` in kernel_scalar.cpp) in which every output
/// element is produced by the same sequence of IEEE-754 operations in the
/// same order, with no FMA contraction.  The SIMD kernel vectorizes across
/// *independent* outputs (key positions for the scores, model lanes for the
/// context), never across a summation, so lane l of a vector op performs
/// exactly the scalar kernel's op for element l.  The threaded backend
/// parallelizes over (row, head) tiles whose outputs are disjoint.  Samplers
/// therefore draw bit-identical samples under every policy.
using KernelPolicy = exec::KernelPolicy;

/// One batched decode-attention problem: for every (row, head), attend the
/// row's query against its cached keys 0..pos and accumulate the context.
/// K and V live in the DecodeState arena; `slots[b]` is row b's physical
/// arena slot.  The kernel only reads K/V, so duplicate slot entries are
/// permitted (DecodeState::gather itself gives duplicated rows distinct
/// slots before any append, since appends write to the slot).
struct DecodeAttnArgs {
  Index batch = 0;    ///< live frontier rows
  Index heads = 0;
  Index headDim = 0;  ///< dModel / heads
  Index dModel = 0;
  Index pos = 0;      ///< attend to key positions 0..pos inclusive
  Index maxLen = 0;   ///< per-slot position capacity
  const Real* q = nullptr;   ///< row b, head h at q + b*qStride + h*headDim
  Index qStride = 0;         ///< 3*dModel when q points into a fused qkv
  const Real* k = nullptr;   ///< slot s, (t, j) at k + (s*dModel + t)*maxLen + j
  const Real* v = nullptr;   ///< slot s, (j, t) at v + (s*maxLen + j)*dModel + t
  const Index* slots = nullptr;  ///< [batch] row -> arena slot
  Real* ctx = nullptr;       ///< [batch, dModel] output, caller-zeroed
  Real scale = 1.0;          ///< 1/sqrt(headDim)
};

/// Run the decode-attention kernel under the given policy.
void decodeAttention(const DecodeAttnArgs& args, KernelPolicy policy);

/// One batched causal self-attention problem of the training path (the
/// full-window forward and its backward; CausalSelfAttention::forward /
/// forwardTape / backward / backwardTape).  `batch` samples of `window`
/// rows each; row r of `qkv` holds q | k | v, head h's slice at h*headDim.
///
/// Forward reads qkv and writes `attn` (row-softmaxed weights, causal-masked
/// entries exactly 0) and accumulates the context into `ctx`, which must
/// arrive zeroed.  Its arithmetic is the decode contract (attn_row.hpp):
/// ascending-t scores times scale, softmaxNormalize, context = (ascending-j
/// sum of e_j v_j) * rinv, weights = e_j * rinv — so the teacher-forced
/// forward and every decode backend produce the same bits.
///
/// Backward reads qkv, attn and dCtx and accumulates into `dQkv`, which must
/// arrive zeroed:
///   dV_j += a_ij dC_i and dA_ij = dC_i . V_j (ascending t),
///   dot_i = sum_j a_ij dA_ij (one sequential ascending-j sum),
///   dS_ij = (a_ij (dA_ij - dot_i)) * scale, skipped where it is exactly 0,
///   dQ_i += dS_ij K_j (ascending j) and dK_j += dS_ij Q_i (ascending i).
/// Every backend keeps these per-element operation orders — SIMD lanes are
/// key positions for scores, dA and dS, features for the context, dV, dQ
/// and dK — so every KernelPolicy produces identical bits.
struct AttnTrainArgs {
  Index batch = 0;
  Index window = 0;   ///< rows per sample (L)
  Index heads = 0;
  Index headDim = 0;  ///< dModel / heads
  Index dModel = 0;
  const Real* qkv = nullptr;   ///< [batch*window, 3*dModel]
  Real* attn = nullptr;        ///< [batch, heads, window, window]: forward
                               ///< writes, backward reads
  Real* ctx = nullptr;         ///< [batch*window, dModel], caller-zeroed
  const Real* dCtx = nullptr;  ///< [batch*window, dModel]
  Real* dQkv = nullptr;        ///< [batch*window, 3*dModel], caller-zeroed
  Real scale = 1.0;            ///< 1/sqrt(headDim)
};

/// Training-attention forward / backward under the given policy (kThreaded
/// spreads samples over OpenMP threads; kAuto resolves like resolvePolicy).
void attnTrainForward(const AttnTrainArgs& args, KernelPolicy policy);
void attnTrainBackward(const AttnTrainArgs& args, KernelPolicy policy);

/// True when an AVX2 or AVX-512 kernel tier is compiled in *and* the CPU
/// supports it (cpuid probe); kSimd/kThreaded silently fall back to the
/// scalar kernels otherwise, preserving bit-identical output.
bool simdAvailable();

/// Resolve kAuto against the problem size (and report the effective backend
/// of any policy given the availability fallback).
KernelPolicy resolvePolicy(KernelPolicy policy, Index batch, Index heads);

/// Short stable name for logs ("scalar", "simd", ...): the *requested*
/// policy, independent of what the host can run.
const char* kernelPolicyName(KernelPolicy policy);

/// Name of the backend that actually executes under `policy` on this host —
/// the availability fallback applied ("simd" degrades to "scalar" without
/// SIMD support, "auto"/"threaded" report their resolved row kernel).  Bench
/// reports record this, so scaling numbers are attributed to the code that
/// produced them.
const char* effectiveKernelName(KernelPolicy policy);

/// Ask the OS to back [p, p+bytes) with transparent huge pages (Linux
/// madvise; no-op elsewhere).  The KV arena is streamed sequentially at
/// L3 bandwidth every decode step, and 4 KB pages cap both the hardware
/// prefetchers (which stop at page boundaries) and the TLB; 2 MB pages are
/// worth ~25% decode-kernel throughput at paper-scale frontiers.  Only pages
/// faulted *after* the advice are affected, so advise before first touch.
void adviseHugePages(const void* p, std::size_t bytes);

/// A 2 MB-aligned, hugepage-advised zeroed buffer on its own anonymous
/// mapping: the backing store of the decode KV arena and of the tape's
/// blocks (and of the kernel microbench's synthetic arenas, so they stream
/// at the same bandwidth).  Alignment matters: transparent huge pages only
/// collapse naturally aligned 2 MB ranges.
class HugeBuffer {
 public:
  HugeBuffer() = default;
  ~HugeBuffer();
  HugeBuffer(const HugeBuffer&) = delete;
  HugeBuffer& operator=(const HugeBuffer&) = delete;
  HugeBuffer(HugeBuffer&& o) noexcept { swap(o); }
  HugeBuffer& operator=(HugeBuffer&& o) noexcept {
    swap(o);
    return *this;
  }
  void swap(HugeBuffer& o) noexcept {
    std::swap(p_, o.p_);
    std::swap(n_, o.n_);
  }

  /// Allocation granule: every buffer is a whole number of these, all of
  /// it zero-filled (so resident) whatever `count` asked for.
  static constexpr std::size_t kPageBytes = std::size_t{2} << 20;

  /// Reallocate to `count` zeroed elements (previous contents discarded).
  void assignZero(std::size_t count);

  [[nodiscard]] Real* data() { return p_; }
  [[nodiscard]] const Real* data() const { return p_; }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  Real* p_ = nullptr;
  std::size_t n_ = 0;
};

namespace detail {
// exp(x) = 2^n * exp(r), r = x - n ln2 in [-ln2/2, ln2/2] (Cody-Waite, two
// constants), exp(r) by its degree-13 Taylor polynomial in a fixed Estrin
// parenthesization.  Max relative error ~1 ulp over the softmax range x <= 0.
inline constexpr double kExpLog2e = 1.44269504088896340736;
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
/// Below this the true exp underflows the normal range; the kernel returns 0
/// (the softmax context loop already skips exactly-zero weights).
inline constexpr double kExpLowest = -708.0;
inline constexpr double kExpC[14] = {
    1.0,                                 // 1/0!
    1.0,                                 // 1/1!
    5.00000000000000000000e-01,          // 1/2!
    1.66666666666666666667e-01,          // 1/3!
    4.16666666666666666667e-02,          // 1/4!
    8.33333333333333333333e-03,          // 1/5!
    1.38888888888888888889e-03,          // 1/6!
    1.98412698412698412698e-04,          // 1/7!
    2.48015873015873015873e-05,          // 1/8!
    2.75573192239858906526e-06,          // 1/9!
    2.75573192239858906526e-07,          // 1/10!
    2.50521083854417187751e-08,          // 1/11!
    2.08767569878680989792e-09,          // 1/12!
    1.60590438368216145994e-10,          // 1/13!
};
}  // namespace detail

/// exp(x) for softmax weights, shared by every attention path (full-forward
/// and all decode kernel backends) so they agree bit for bit.  Pure IEEE
/// mul/add arithmetic in a fixed order — the SIMD kernels evaluate the exact
/// same operation sequence per lane, so vectorized and scalar results are
/// identical.  Valid for x <= ~709; inputs below kExpLowest (and NaN) map to
/// exactly 0, a weight that then contributes exact zeros to the denominator
/// partials and the context sum.
inline Real softmaxExp(Real x) {
  using namespace detail;
  if (!(x > kExpLowest)) return 0.0;
  const Real n = std::nearbyint(x * kExpLog2e);
  const Real r = (x - n * kExpLn2Hi) - n * kExpLn2Lo;
  const Real r2 = r * r;
  const Real r4 = r2 * r2;
  const Real r8 = r4 * r4;
  // Estrin groups; parenthesization is part of the kernel contract.
  const Real g0 = (kExpC[0] + kExpC[1] * r) + r2 * (kExpC[2] + kExpC[3] * r);
  const Real g1 = (kExpC[4] + kExpC[5] * r) + r2 * (kExpC[6] + kExpC[7] * r);
  const Real g2 = (kExpC[8] + kExpC[9] * r) + r2 * (kExpC[10] + kExpC[11] * r);
  const Real g3 = kExpC[12] + kExpC[13] * r;
  const Real p = (g0 + r4 * g1) + r8 * (g2 + r4 * g3);
  // 2^n by exponent-field construction; n in [-1021, 1023] here, so the
  // result stays a normal double.
  const auto bits = static_cast<std::uint64_t>(static_cast<std::int64_t>(n) + 1023) << 52;
  return p * std::bit_cast<double>(bits);
}

/// Contract steps 3-5 (attn_row.hpp) in one shared scalar form: replace
/// scores[0..n) by e_j = softmaxExp(scores[j] - mx), accumulate the
/// denominator as eight j mod 8 partials combined by the fixed tree, and
/// return rinv = 1/denom.  Both the scalar reference kernel and the
/// full-forward attention path call this, so the contract's softmax exists
/// in exactly one scalar implementation (the SIMD kernels mirror it lane
/// for lane).
inline Real softmaxNormalize(Real* scores, Index n, Real mx) {
  Real part[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (Index j = 0; j < n; ++j) {
    scores[j] = softmaxExp(scores[j] - mx);
    part[j & 7] += scores[j];
  }
  const Real denom = ((part[0] + part[1]) + (part[2] + part[3])) +
                     ((part[4] + part[5]) + (part[6] + part[7]));
  return 1.0 / denom;
}

}  // namespace nnqs::nn::kernels
