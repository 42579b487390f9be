// Fig. 11 of the paper: strong scaling of one VMC iteration — fixed total
// N_s, increasing rank count (threads standing in for GPUs, or real MPI
// processes with --backend mpi under mpirun), with the per-phase breakdown
// (sampling / local energy / gradient) and the parallel efficiency relative
// to the smallest configuration.
//
// Default system: C2H4O/STO-3G (38 qubits).  `--molecule benzene` runs the
// paper's 120-qubit benzene/6-31G (frozen core); expect a long JW build.

#include "scaling_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv, scalingFlags({"iters", "samples"}));
  quietLogs();
  const int iters = static_cast<int>(args.getInt("iters", 2));
  const std::uint64_t nSamples =
      static_cast<std::uint64_t>(args.getInt("samples", 1 << 14));
  exec::ExecutionPolicy ex;
  ex.kernel = kernelPolicy(args);
  ex.eloc = elocMode(args);
  ex.comm = commBackend(args);
  // Under MPI every process executes this main; only the root prints.
  const bool root = parallel::processRank(ex.comm) == 0;

  Timer build;
  Pipeline p = scalingPipeline(args);
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
  if (root) {
    std::printf("Fig. 11: strong scaling, %s (%d qubits, Nh=%zu, build %.1fs), "
                "Ns=%llu fixed\n",
                p.mol.formula().c_str(), p.nQubits, p.ham.nTerms(), build.seconds(),
                static_cast<unsigned long long>(nSamples));
    std::printf("%6s %9s %10s %10s %10s %10s %8s %10s %10s %8s\n", "ranks",
                "kernel", "sample(s)", "eloc(s)", "grad(s)", "total(s)", "eff",
                "Nu", "comm MB/it", "imbal");
  }

  double baseline = 0;
  int baseRanks = 0;
  for (int ranks : rankSweep(args, ex.comm)) {
    const ScalingPoint pt =
        scalingRun(packed, paperNetConfig(p), ranks, nSamples, iters, ex);
    if (baseline == 0) {
      baseline = pt.total;
      baseRanks = ranks;
    }
    const double eff =
        100.0 * baseline * baseRanks / (pt.total * static_cast<double>(ranks));
    if (root) {
      std::printf(
          "%6d %9s %10.3f %10.3f %10.3f %10.3f %7.1f%% %10zu %10.2f %8.2f\n",
          ranks, pt.kernel, pt.sampling, pt.localEnergy, pt.gradient, pt.total,
          eff, pt.nUnique, static_cast<double>(pt.commBytes) / 1e6,
          pt.imbalance);
      std::fflush(stdout);
    }
  }
  if (root)
    std::printf("\nPaper reference (benzene, 4->64 A100): 100%%, 99.2%%, 96.7%%, "
                "84.1%%, 67.7%% strong efficiency.\n");
  return 0;
}
