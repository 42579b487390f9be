// Table 1 of the paper: ground-state energies of H2O, N2, O2, H2S, PH3,
// LiCl, Li2O in STO-3G — HF / CCSD / QiankunNet-VMC / FCI plus the MAE of
// each method against FCI.
//
// Defaults keep the run to a few minutes: VMC on the smaller systems with a
// reduced iteration budget, FCI wherever the determinant space fits.  Flags:
//   --full             VMC for every molecule
//   --vmc-iters N      VMC iterations per molecule (default 700)
//   --licl-fci         run the ~1e6-determinant LiCl FCI
//   --samples N        VMC N_s cap (default 2^30); N_s starts at 8192 and
//                      doubles every 3 iterations after the first 10
//   --max-unique N     N_s stops doubling while the global unique-sample
//                      count exceeds N/2 (default 60000)

#include "bench_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

namespace {

struct Row {
  std::string name;
  int nQubits = 0, nElectrons = 0;
  std::size_t nh = 0;
  Real eHf = 0, eCcsd = 0, eVmc = 0, eFci = 0;
  bool haveVmc = false, haveFci = false;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, {"full", "vmc-iters", "samples", "licl-fci", "max-unique"});
  quietLogs();
  const bool full = args.flag("full");
  const int vmcIters = static_cast<int>(args.getInt("vmc-iters", 700));
  const std::uint64_t nSamples =
      static_cast<std::uint64_t>(args.getInt("samples", 1ll << 30));

  const std::vector<std::string> molecules = {"H2O", "N2",   "O2",  "H2S",
                                              "PH3", "LiCl", "Li2O"};
  // Determinant-space limit for the default FCI runs.
  const std::size_t fciLimit = args.flag("licl-fci") ? 1100000 : 60000;
  // VMC by default only where the reduced iteration budget converges well;
  // N2 and larger need a few thousand iterations.  Even H2O falls short at
  // the 700-iteration default: with seed 11 it ends 20.6 mHa above FCI, and
  // 3,000 iterations bring it to 0.17 mHa (1 rank x 4 OpenMP threads).
  const auto vmcDefault = [&](const std::string& n) { return full || n == "H2O"; };

  std::printf("Table 1: ground-state energies (Hartree), STO-3G\n");
  std::printf("%-6s %4s %4s %8s  %12s %12s %12s %12s\n", "mol", "N", "Ne", "Nh",
              "HF", "CCSD", "QiankunNet", "FCI");

  std::vector<Row> rows;
  for (const auto& name : molecules) {
    Row row;
    row.name = name;
    Pipeline p = buildPipeline(name, "sto-3g");
    row.nQubits = p.nQubits;
    row.nElectrons = p.mo.nAlpha + p.mo.nBeta;
    row.nh = p.ham.nTerms();
    row.eHf = p.hf.energy;

    const auto cc = cc::runCcsd(p.mo, p.hf.energy);
    row.eCcsd = cc.energy;

    const std::size_t dim = fci::fciDimension(p.mo.nOrb, p.mo.nAlpha, p.mo.nBeta);
    if (dim <= fciLimit) {
      fci::FciOptions fciOpts;
      fciOpts.maxDeterminants = fciLimit;
      row.eFci = fci::runFci(p.mo, fciOpts).energy;
      row.haveFci = true;
    }

    if (vmcDefault(name)) {
      const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
      vmc::VmcOptions opts;
      opts.iterations = vmcIters;
      opts.nSamples = nSamples;
      opts.nSamplesInitial = 8192;
      opts.pretrainIterations = 10;
      opts.growEvery = 3;
      opts.maxUniqueSamples = static_cast<std::uint64_t>(args.getInt("max-unique", 60000));
      opts.warmupSteps = vmcIters / 4;
      opts.seed = 11;
      const auto res = vmc::runVmc(packed, paperNetConfig(p), opts);
      row.eVmc = res.energy;
      row.haveVmc = true;
    }

    std::printf("%-6s %4d %4d %8zu  %12.4f %12.4f ", row.name.c_str(), row.nQubits,
                row.nElectrons, row.nh, row.eHf, row.eCcsd);
    if (row.haveVmc) std::printf("%12.4f ", row.eVmc); else std::printf("%12s ", "-");
    if (row.haveFci) std::printf("%12.4f\n", row.eFci); else std::printf("%12s\n", "-");
    std::fflush(stdout);
    rows.push_back(row);
  }

  // MAE vs FCI over the rows where FCI is available.
  Real maeHf = 0, maeCc = 0, maeVmc = 0;
  int nAll = 0, nVmc = 0;
  for (const auto& r : rows) {
    if (!r.haveFci) continue;
    maeHf += std::abs(r.eHf - r.eFci);
    maeCc += std::abs(r.eCcsd - r.eFci);
    ++nAll;
    if (r.haveVmc) {
      maeVmc += std::abs(r.eVmc - r.eFci);
      ++nVmc;
    }
  }
  if (nAll > 0)
    std::printf("\nMAE vs FCI:  HF %.2e   CCSD %.2e   QiankunNet %.2e (over %d/%d rows)\n",
                maeHf / nAll, maeCc / nAll, nVmc ? maeVmc / nVmc : 0.0, nVmc, nAll);
  std::printf("\nCommunication-volume example (paper §3.2): see fig11/fig12 outputs.\n");
  return 0;
}
