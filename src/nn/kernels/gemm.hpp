#pragma once

#include "nn/kernels/kernels.hpp"

namespace nnqs::nn::kernels {

/// One dense double-precision GEMM problem:
///
///   C[i,j] = init_ij + sum_{l = 0 .. k-1, ascending} A[i,l] * B[l,j]
///
/// (each term fused into the running sum, as the contract below says),
/// where init_ij is `bias[j]` when a bias row is given, the existing C[i,j]
/// when `accumulate` is set, and 0 otherwise.  `transA`/`transB` select how
/// the operand buffers are indexed (both buffers are row-major with the given
/// leading dimension):
///   A[i,l] = a[i*lda + l]   or, with transA, a[l*lda + i]
///   B[l,j] = b[l*ldb + j]   or, with transB, b[j*ldb + l]
/// so one entry point covers all four shapes the NN and linalg stacks need:
///   Linear::forward   y = x W^T + b       (transB, bias)
///   Linear::backward  dX = dY W           (plain)
///                     dW += dY^T X        (transA, accumulate)
///   linalg::matmul    C = A B             (plain)
///   linalg::matmulTN  C = A^T B           (transA)
///
/// The arithmetic contract: every output element is one chain of correctly
/// rounded fused multiply-adds in ascending l from its init,
///
///   c = init_ij;  c = fma(A[i,l], B[l,j], c)  for l = 0, 1, .., k-1,
///
/// and nothing else is fused: the library builds with -ffp-contract=off, so
/// the only FMAs are the explicit std::fma and lane fmadd calls.  (The
/// attention, LayerNorm and elementwise kernels keep mul then add.)  A
/// correctly rounded fma has one result, whether libm, a scalar instruction
/// or a vector lane computes it.  Backends may vectorize and block only
/// across *independent* output elements — lanes are distinct output columns
/// j, register blocks are distinct output rows i, and the k-loop per
/// accumulator stays sequential — so every KernelPolicy backend produces
/// exactly the naive loop's bits.  k-strip blocking is allowed: flushing a
/// register accumulator to C and resuming from the stored value is exact, so
/// strips preserve the per-element operation sequence.  B is either packed
/// into panels (pure copies) or, for few-row problems, read in place, and
/// both are pure reads of the same elements B[l,j], so the choice cannot
/// perturb results either.
struct GemmArgs {
  Index m = 0, n = 0, k = 0;
  const Real* a = nullptr;
  Index lda = 0;
  bool transA = false;
  const Real* b = nullptr;
  Index ldb = 0;
  bool transB = false;
  Real* c = nullptr;
  Index ldc = 0;
  const Real* bias = nullptr;  ///< [n] row added first, or nullptr
  bool accumulate = false;     ///< C += instead of C = (exclusive with bias)
  /// The caller guarantees C is already zero-filled (a value-initialized
  /// destination): the plain C = A B init skips its redundant re-zeroing.
  /// Only meaningful without bias/accumulate.
  bool cZeroed = false;
};

/// Run the GEMM under the given policy.  kScalar is the naive reference
/// (ground truth; built once per ISA tier, so std::fma is one instruction on
/// an FMA host); kSimd is the single-threaded register-blocked kernel
/// (AVX-512 > AVX2 > scalar panels by cpuid); kThreaded adds the OpenMP
/// row-block driver; kAuto picks kThreaded past a work threshold.
void gemm(const GemmArgs& args, KernelPolicy policy = KernelPolicy::kAuto);

/// Resolve kAuto against the problem size (mirrors resolvePolicy for the
/// decode-attention kernels).
KernelPolicy resolveGemmPolicy(KernelPolicy policy, Index m, Index n, Index k);

}  // namespace nnqs::nn::kernels
