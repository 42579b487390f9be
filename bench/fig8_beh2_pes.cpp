// Fig. 8 of the paper: potential energy surface of BeH2 / STO-3G (14 qubits)
// computed with QiankunNet-VMC against HF, CCSD and FCI, plus the absolute
// errors w.r.t. FCI.
//
// Flags: --points N (default 3), --vmc-iters N (default 300), --samples N.

#include "bench_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv, {"points", "vmc-iters", "samples"});
  quietLogs();
  const int nPoints = static_cast<int>(args.getInt("points", 3));
  const int vmcIters = static_cast<int>(args.getInt("vmc-iters", 250));
  const std::uint64_t nSamples =
      static_cast<std::uint64_t>(args.getInt("samples", 1ll << 30));

  std::printf("Fig. 8: BeH2 STO-3G potential energy surface (14 qubits)\n");
  std::printf("%-8s %12s %12s %12s %12s  %10s %10s\n", "r(A)", "HF", "CCSD",
              "QiankunNet", "FCI", "|HF-FCI|", "|QN-FCI|");

  for (int i = 0; i < nPoints; ++i) {
    const Real r = 1.0 + (nPoints == 1 ? 0.0 : 1.0 * i / (nPoints - 1));  // 1.0 .. 2.0 A
    Pipeline p = buildPipeline(chem::makeBeH2(r), "sto-3g");
    const auto cc = cc::runCcsd(p.mo, p.hf.energy);
    const auto fciRes = fci::runFci(p.mo);

    const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
    vmc::VmcOptions opts;
    opts.iterations = vmcIters;
    opts.nSamples = nSamples;
    opts.nSamplesInitial = 4096;
    opts.pretrainIterations = 10;
    opts.growEvery = 6;
    opts.warmupSteps = vmcIters / 4;
    opts.seed = 13;
    const auto res = vmc::runVmc(packed, paperNetConfig(p), opts);

    std::printf("%-8.3f %12.5f %12.5f %12.5f %12.5f  %10.2e %10.2e\n", r,
                p.hf.energy, cc.energy, res.energy, fciRes.energy,
                std::abs(p.hf.energy - fciRes.energy),
                std::abs(res.energy - fciRes.energy));
    std::fflush(stdout);
  }
  std::printf("\nChemical accuracy threshold: %.1e Ha (paper Fig. 8b)\n",
              kChemicalAccuracyHa);
  return 0;
}
