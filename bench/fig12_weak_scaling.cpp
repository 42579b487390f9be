// Fig. 12 of the paper: weak scaling of one VMC iteration — N_s grows
// proportionally with the rank count so each rank keeps an approximately
// constant number of unique samples.  `--backend mpi` runs real MPI ranks
// (NNQS_WITH_MPI build under mpirun) instead of in-process thread ranks.
//
// Default system: C2H4O/STO-3G; `--molecule benzene` for the paper-scale run.

#include "scaling_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv, scalingFlags({"iters", "samples-per-rank"}));
  quietLogs();
  const int iters = static_cast<int>(args.getInt("iters", 2));
  const std::uint64_t nsPerRank =
      static_cast<std::uint64_t>(args.getInt("samples-per-rank", 1 << 12));
  exec::ExecutionPolicy ex;
  ex.kernel = kernelPolicy(args);
  ex.eloc = elocMode(args);
  ex.comm = commBackend(args);
  const bool root = parallel::processRank(ex.comm) == 0;

  Timer build;
  Pipeline p = scalingPipeline(args);
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
  if (root) {
    std::printf("Fig. 12: weak scaling, %s (%d qubits, Nh=%zu, build %.1fs), "
                "Ns = %llu x ranks\n",
                p.mol.formula().c_str(), p.nQubits, p.ham.nTerms(), build.seconds(),
                static_cast<unsigned long long>(nsPerRank));
    std::printf("%6s %9s %10s %10s %10s %10s %8s %10s %10s %8s\n", "ranks",
                "kernel", "sample(s)", "eloc(s)", "grad(s)", "total(s)", "eff",
                "Nu", "comm MB/it", "imbal");
  }

  double baseline = 0;
  for (int ranks : rankSweep(args, ex.comm)) {
    const ScalingPoint pt =
        scalingRun(packed, paperNetConfig(p), ranks,
                   nsPerRank * static_cast<std::uint64_t>(ranks), iters, ex);
    if (baseline == 0) baseline = pt.total;
    const double eff = 100.0 * baseline / pt.total;  // ideal weak scaling: flat
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
    std::printf("\nPaper reference (benzene, 4->64 A100): 100%%, 96.9%%, 96.3%%, "
                "93.4%%, 84.3%% weak efficiency.\n");
  return 0;
}
