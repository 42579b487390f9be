// Fig. 13 of the paper: potential energy surface of H2 in the cc-pVTZ basis
// (56 qubits) and, with --aug, aug-cc-pVTZ (92 qubits): QiankunNet-VMC vs HF
// and FCI (exact for two electrons, so CCSD == FCI here).
//
// Flags: --points N (default 3), --vmc-iters N (default 120), --aug,
//        --no-vmc (chemistry columns only).

#include "bench_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {"points", "vmc-iters", "samples", "aug", "no-vmc", "max-unique"});
  quietLogs();
  const int nPoints = static_cast<int>(args.getInt("points", 3));
  const int vmcIters = static_cast<int>(args.getInt("vmc-iters", 250));
  const std::uint64_t nSamples =
      static_cast<std::uint64_t>(args.getInt("samples", 1ll << 33));
  const bool aug = args.flag("aug");
  const bool doVmc = !args.flag("no-vmc");
  const std::string basis = aug ? "aug-cc-pvtz" : "cc-pvtz";

  std::printf("Fig. 13: H2 / %s potential energy surface\n", basis.c_str());
  std::printf("%-8s %12s %12s %12s  %10s %10s\n", "r(A)", "HF", "QiankunNet",
              "FCI", "|HF-FCI|", "|QN-FCI|");

  for (int i = 0; i < nPoints; ++i) {
    const Real r = 0.5 + (nPoints == 1 ? 0.25 : 1.5 * i / (nPoints - 1));  // 0.5..2.0 A
    Timer t;
    Pipeline p = buildPipeline(chem::makeH2(r), basis);
    fci::FciOptions fciOpts;  // C(nOrb,1)^2 determinants: tiny
    const auto fciRes = fci::runFci(p.mo, fciOpts);

    Real eVmc = 0;
    if (doVmc) {
      const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
      vmc::VmcOptions opts;
      opts.iterations = vmcIters;
      opts.nSamples = nSamples;  // BAS cost scales with N_u, so N_s can be huge
      opts.nSamplesInitial = 4096;
      opts.pretrainIterations = 10;
      opts.growEvery = 3;
      opts.maxUniqueSamples = static_cast<std::uint64_t>(args.getInt("max-unique", 16384));
      opts.warmupSteps = vmcIters / 4;
      opts.seed = 19;
      eVmc = vmc::runVmc(packed, paperNetConfig(p), opts).energy;
    }

    std::printf("%-8.3f %12.5f ", r, p.hf.energy);
    if (doVmc)
      std::printf("%12.5f ", eVmc);
    else
      std::printf("%12s ", "-");
    std::printf("%12.5f  %10.2e %10.2e   (%.0fs)\n", fciRes.energy,
                std::abs(p.hf.energy - fciRes.energy),
                doVmc ? std::abs(eVmc - fciRes.energy) : 0.0, t.seconds());
    std::fflush(stdout);
  }
  std::printf("\nNote: the paper's complete-basis-set line is the FCI/aug-cc-pVTZ "
              "curve here (run with --aug); CCSD == FCI for two electrons.\n");
  return 0;
}
