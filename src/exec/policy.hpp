#pragma once

// Execution-policy enums and the consolidated ExecutionPolicy struct.
//
// Every engine-selection knob of the stack lives here, in one dependency-free
// header, so any layer can name a policy without pulling in the subsystem that
// implements it.  The subsystems alias these types back into their historical
// namespaces (nqs::DecodePolicy, nn::kernels::KernelPolicy, vmc::ElocMode,
// parallel::CommBackend), so existing call sites compile unchanged.

namespace nnqs::exec {

/// Which conditional-distribution engine the samplers — and, since the
/// teacher-forced evaluate path, ln|Psi| inference — run on.
///
/// kFullForward is the stateless reference path: every step re-runs a full
/// transformer forward over the whole prefix window (O(L^2) token work per
/// sweep).  kKvCache is the stateful incremental-decode engine: per-layer
/// key/value caches make each step O(1) token work, with cache rows gathered
/// onto the live frontier as sampling-tree nodes split or are pruned.  Both
/// produce bit-identical samples (and, via teacher forcing, bit-identical
/// amplitudes) for a fixed seed.
enum class DecodePolicy {
  kFullForward,
  kKvCache,
};

/// Decode-attention / GEMM / elementwise kernel backend (src/nn/kernels/).
/// All backends are bit-identical under the arithmetic contract, so this is
/// purely a performance knob.
enum class KernelPolicy {
  kAuto,      ///< threaded+SIMD for large frontiers, plain SIMD otherwise
  kScalar,    ///< serial scalar reference kernel (ground truth)
  kSimd,      ///< single-threaded AVX2/FMA-capable kernel (scalar fallback)
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
/// VmcOptions, SamplerOptions and QiankunNet::setEvalPolicy all accept it
/// (the deprecated per-field option aliases they carried for one release
/// after the consolidation are gone).
struct ExecutionPolicy {
  DecodePolicy decode = DecodePolicy::kKvCache;
  KernelPolicy kernel = KernelPolicy::kAuto;
  ElocMode eloc = ElocMode::kBatched;
  CommBackend comm = CommBackend::kThreads;

  /// Rows per cache-resident tile of the BAS sweep engine's depth-first
  /// frontier descent (kKvCache sampling only).  0 selects the engine
  /// default (BasSweepEngine::kDefaultTileRows); a negative value disables
  /// tiling entirely — one breadth-first tile spanning the whole frontier,
  /// the untiled A/B reference.  Every geometry draws bit-identical sample
  /// sets (per-node RNG substreams), so this knob only moves cache traffic.
  int sweepTileRows = 0;
  /// Rows per tile of the teacher-forced evaluate sweep (inference
  /// amplitudes, kKvCache decode only): bounds the decode KV arena
  /// independent of the batch size.  0 selects the engine default
  /// (TransformerAR::kEvalTileRows); a negative value disables tiling — one
  /// tile spanning the whole batch.  Every geometry is bit-identical (the
  /// decode contract), so this knob only moves cache traffic.  Replaces the
  /// tileRows argument the two-parameter QiankunNet::setEvalPolicy carried.
  int evalTileRows = 0;
  /// Samples per tile of the recompute-in-tiles gradient path
  /// (QiankunNet::evaluateGrad): each tile re-runs the recording forward,
  /// backprops, and releases its activations, bounding peak training
  /// activation memory at O(tile * L * d) independent of the batch size.
  /// 0 selects the engine default (TransformerAR::kEvalTileRows); a negative
  /// value selects the monolithic full-batch cached-activation reference.
  /// Ascending-tile accumulation order makes every geometry produce
  /// bit-identical parameter gradients, so this knob only trades recompute
  /// time against activation memory.
  int gradTileRows = 0;
  /// Fuse final-sweep evaluation into the BAS sweep: the per-step masked
  /// conditionals the sampler already computes are accumulated into ln|Psi|
  /// per leaf (SampleSet::logAmp), so the VMC driver skips its separate
  /// evaluate-over-the-sample-set pass.  Bit-identical to the separate pass;
  /// off = the A/B reference that re-derives amplitudes via evaluate().
  bool fusedSweep = true;
};

}  // namespace nnqs::exec
