#pragma once

// Execution-policy enums and the consolidated ExecutionPolicy struct.
//
// Every engine-selection knob of the stack lives here, in one dependency-free
// header, so any layer can name a policy without pulling in the subsystem that
// implements it.  The subsystems alias these types back into their historical
// namespaces (nn::kernels::KernelPolicy, vmc::ElocMode, parallel::CommBackend),
// so existing call sites compile unchanged.

namespace nnqs::exec {

/// Decode-attention / GEMM / elementwise kernel backend (src/nn/kernels/).
/// All backends are bit-identical under the arithmetic contract, so this is
/// purely a performance knob.
enum class KernelPolicy {
  kAuto,      ///< threaded+SIMD for large frontiers, plain SIMD otherwise
  kScalar,    ///< serial scalar reference kernel (ground truth)
  kSimd,      ///< single-threaded AVX-512 / AVX2 kernel tier (scalar fallback)
  kThreaded,  ///< SIMD kernel + OpenMP over (row, head) tiles
};

/// Local-energy engine variants benchmarked in Fig. 10.  All compute
///   E_loc(x) = sum_{x'} <x|H|x'> psi(x') / psi(x):
///  - kBaseline: per-Pauli-string (MADE layout), every coupled state's psi
///    obtained by a fresh network inference; no fusion, no lookup table.
///  - kSaFuse: compressed layout (Fig. 6c), fused coefficient evaluation,
///    sample-aware (only x' in S), but S searched linearly as byte strings.
///  - kSaFuseLut: + the sorted integer lookup table (binary search).
///  - kSaFuseLutParallel: + thread parallelism over samples (Algorithm 2 with
///    OpenMP threads standing in for the CUDA kernel).
///  - kBatched: the batched engine (vmc/eloc_kernels.hpp) — sample tiles,
///    an XOR-linear hash with a blocked Bloom prefilter and a hashed LUT
///    index (no sort), batched parity kernels for the coefficients, tiles
///    dynamically scheduled by realized term work.  Per-sample results
///    identical to kSaFuseLut.
enum class ElocMode {
  kBaseline,
  kSaFuse,
  kSaFuseLut,
  kSaFuseLutParallel,
  kBatched,
};

/// Transport behind the parallel::Comm collectives (src/parallel/comm.hpp):
///  - kThreads: rank-threads of one process (tests/CI; no external deps).
///  - kMpi: one MPI process per rank (NNQS_WITH_MPI builds; launch under
///    mpirun).  Both transports implement the same rank-ordered deterministic
///    reduction contract, so a run is bit-identical across backends at a
///    fixed rank count.
enum class CommBackend {
  kThreads,
  kMpi,
};

/// The consolidated execution policy: every engine-selection knob of a VMC
/// run (or of a standalone sampler / inference call) in one struct.
/// VmcOptions, SamplerOptions and QiankunNet::setEvalPolicy all accept it.
struct ExecutionPolicy {
  KernelPolicy kernel = KernelPolicy::kAuto;
  ElocMode eloc = ElocMode::kBatched;
  CommBackend comm = CommBackend::kThreads;

  /// Rows per cache-resident tile of the BAS sweep engine's depth-first
  /// frontier descent.  0 selects the engine default
  /// (BasSweepEngine::kDefaultTileRows); a negative value disables tiling
  /// entirely — one breadth-first tile spanning the whole frontier,
  /// the untiled A/B reference.  Every geometry draws bit-identical sample
  /// sets (per-node RNG substreams), so this knob only moves cache traffic.
  int sweepTileRows = 0;
  /// Samples per tape tile of both sub-networks' forwards, in the
  /// recompute-in-tiles gradient (QiankunNet::evaluateGrad) and in
  /// inference: the amplitude transformer's in evaluate, evaluateInto and
  /// psi, the phase MLP's in phases and in those three too.  Each tile
  /// re-runs its forward onto the tape and releases it, bounding activation
  /// memory independent of the batch size.  0 selects the engine default:
  /// each sub-network gets the largest tile whose gradient tape fits
  /// TransformerAR::kGradTapeBudgetBytes, and its inference reuses that
  /// tile.  A positive value forces every tile; a negative value disables
  /// tiling — one tile spanning the whole batch.  Ascending-tile accumulation order makes
  /// every geometry produce bit-identical gradients, and rows are
  /// independent in the forward, so this knob only trades recompute time
  /// against activation memory.
  int gradTileRows = 0;
};

}  // namespace nnqs::exec
