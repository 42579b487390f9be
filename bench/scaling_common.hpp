#pragma once

// Shared machinery of the strong/weak scaling benches (Figs. 11-12).

#include <omp.h>

#include <cstdlib>

#include "bench_common.hpp"

namespace nnqs::bench {

/// The flags every scaling bench reads (kernelPolicy, elocMode, commBackend,
/// scalingPipeline, rankSweep), plus the bench's own `extra` ones.
inline std::vector<std::string> scalingFlags(std::vector<std::string> extra) {
  for (const char* k : {"kernel", "eloc", "backend", "molecule", "max-ranks"})
    extra.emplace_back(k);
  return extra;
}

struct ScalingPoint {
  int ranks = 0;
  double sampling = 0, localEnergy = 0, gradient = 0, total = 0;
  std::size_t nUnique = 0;
  std::uint64_t commBytes = 0;
  /// Realized Stage-3 term-work imbalance, max/min over ranks (1.0 = perfect).
  double imbalance = 1.0;
  const char* kernel = "";  ///< decode-kernel backend that produced the row
};

/// `--eloc batched|lut` selects the local-energy engine: the batched
/// hashed-probe engine (default) or the per-sample binary-search engine.
/// Both produce bit-identical per-sample E_loc, so this only moves the
/// local-energy phase's wall clock.
inline vmc::ElocMode elocMode(const Args& args) {
  const std::string mode = args.get("eloc", "batched");
  if (mode == "batched") return vmc::ElocMode::kBatched;
  if (mode == "lut") return vmc::ElocMode::kSaFuseLutParallel;
  std::fprintf(stderr,
               "unknown --eloc mode '%s' (expected 'batched' or 'lut')\n",
               mode.c_str());
  std::exit(2);
}

/// `--backend threads|mpi` selects the comm backend: in-process thread ranks
/// (default) or real MPI processes (requires an NNQS_WITH_MPI build launched
/// under mpirun).  Both backends produce bit-identical trajectories at the
/// same rank count.
inline exec::CommBackend commBackend(const Args& args) {
  const std::string mode = args.get("backend", "threads");
  if (mode == "threads") return exec::CommBackend::kThreads;
  if (mode == "mpi") {
    if (!parallel::mpiAvailable()) {
      std::fprintf(stderr,
                   "--backend mpi needs a build with -DNNQS_WITH_MPI=ON\n");
      std::exit(2);
    }
    return exec::CommBackend::kMpi;
  }
  std::fprintf(stderr,
               "unknown --backend mode '%s' (expected 'threads' or 'mpi')\n",
               mode.c_str());
  std::exit(2);
}

/// `--kernel scalar|simd|threaded|auto` selects the decode-attention kernel
/// backend of the sampler (src/nn/kernels/); every backend samples
/// bit-identically, so this column only moves the sampling wall clock.
inline nn::kernels::KernelPolicy kernelPolicy(const Args& args) {
  const std::string mode = args.get("kernel", "auto");
  if (mode == "auto") return nn::kernels::KernelPolicy::kAuto;
  if (mode == "scalar") return nn::kernels::KernelPolicy::kScalar;
  if (mode == "simd") return nn::kernels::KernelPolicy::kSimd;
  if (mode == "threaded") return nn::kernels::KernelPolicy::kThreaded;
  std::fprintf(stderr,
               "unknown --kernel mode '%s' (expected 'auto', 'scalar', 'simd' "
               "or 'threaded')\n",
               mode.c_str());
  std::exit(2);
}

/// Run a few VMC iterations at the given rank count and report per-phase
/// seconds per iteration.
inline ScalingPoint scalingRun(const ops::PackedHamiltonian& packed,
                               const nqs::QiankunNetConfig& netCfg, int ranks,
                               std::uint64_t nSamples, int iterations,
                               const exec::ExecutionPolicy& ex = {},
                               vmc::RankSplit split = vmc::RankSplit::kTermBalanced) {
  vmc::VmcOptions opts;
  opts.iterations = iterations;
  opts.nSamples = nSamples;
  opts.nSamplesInitial = nSamples;
  opts.pretrainIterations = 0;
  opts.nRanks = ranks;
  opts.threadsPerRank = 1;
  opts.exec = ex;
  opts.rankSplit = split;
  // The paper uses N*_u = 16384 n; our node has far fewer ranks and smaller
  // N_u, so split the sampling tree earlier — the deep (quadratically more
  // expensive) layers are what must be partitioned for sampling to scale.
  opts.uniqueThresholdPerRank = 256;
  opts.seed = 17;
  const vmc::VmcResult res = vmc::runVmc(packed, netCfg, opts);
  ScalingPoint pt;
  pt.ranks = ranks;
  pt.kernel = nn::kernels::effectiveKernelName(ex.kernel);
  pt.sampling = res.secondsPerIteration.sampling;
  pt.localEnergy = res.secondsPerIteration.localEnergy;
  pt.gradient = res.secondsPerIteration.gradient;
  pt.total = res.secondsPerIteration.total();
  pt.nUnique = res.nUnique;
  pt.commBytes = res.commBytesPerIteration;
  pt.imbalance = res.rankTermsMin > 0
                     ? static_cast<double>(res.rankTermsMax) /
                           static_cast<double>(res.rankTermsMin)
                     : 1.0;
  return pt;
}

/// Molecule selection shared by fig11/fig12: default C2H4O (38 qubits,
/// minutes on one node); `--molecule benzene` reproduces the paper-scale
/// 120-qubit system (6-31G, 6 frozen cores) at the cost of a long
/// Hamiltonian build.
inline Pipeline scalingPipeline(const Args& args) {
  const std::string mol = args.get("molecule", "C2H4O");
  if (mol == "benzene" || mol == "C6H6")
    return buildPipeline("C6H6", "6-31g", /*nFrozen=*/6);
  return buildPipeline(mol, "sto-3g");
}

/// Rank counts to sweep.  Threads backend: 1..max-ranks in powers of 2 (the
/// world is respawned per row).  MPI backend: the world size is fixed by
/// mpirun, so the sweep is the single point at that size — sweep by invoking
/// mpirun with different -np values.
inline std::vector<int> rankSweep(const Args& args, exec::CommBackend backend) {
  if (backend == exec::CommBackend::kMpi)
    return {parallel::worldSize(exec::CommBackend::kMpi, 0)};
  const int maxRanks = static_cast<int>(
      args.getInt("max-ranks", std::min(16, omp_get_max_threads())));
  std::vector<int> ranks;
  for (int r = 1; r <= maxRanks; r *= 2) ranks.push_back(r);
  return ranks;
}

}  // namespace nnqs::bench
