#include <gtest/gtest.h>
#include <omp.h>

#include <bit>
#include <cstdint>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "scf/mp2.hpp"
#include "scf/mo_integrals.hpp"
#include "scf/rhf.hpp"

using namespace nnqs;
using namespace nnqs::chem;
using namespace nnqs::scf;

namespace {
ScfResult solve(const char* name, const char* basisName = "sto-3g") {
  const Molecule mol = makeMolecule(name);
  const BasisSet basis = buildBasis(mol, basisName);
  const AoIntegrals ao = computeAoIntegrals(mol, basis);
  return runHartreeFock(ao, mol);
}
}  // namespace

struct HfReference {
  const char* name;
  double energy;  ///< published STO-3G RHF total (the paper's Table 1 HF
                  ///< column for the molecules it lists)
  double tol;
};

class HfEnergyTest : public ::testing::TestWithParam<HfReference> {};

TEST_P(HfEnergyTest, MatchesPublishedValue) {
  const auto& p = GetParam();
  const ScfResult hf = solve(p.name);
  EXPECT_TRUE(hf.converged) << p.name;
  EXPECT_NEAR(hf.energy, p.energy, p.tol) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sto3G, HfEnergyTest,
    ::testing::Values(HfReference{"H2", -1.11668, 1e-4},
                      HfReference{"H2O", -74.9631, 1e-3},
                      HfReference{"N2", -107.4959, 1e-3},
                      HfReference{"LiH", -7.8620, 1e-3},
                      HfReference{"BeH2", -15.5603, 1e-3},
                      HfReference{"NH3", -55.4540, 1e-3},
                      // Table 1 row values (third-row elements use Slater-zeta
                      // STO-3G, hence the wider tolerances):
                      HfReference{"O2", -147.6319, 2e-3},
                      HfReference{"H2S", -394.3114, 5e-2},
                      HfReference{"PH3", -338.6341, 8e-2},
                      HfReference{"LiCl", -460.8273, 8e-2},
                      HfReference{"Li2O", -87.7956, 2e-2}));

TEST(Scf, H2CcPvtzNearBasisSetLimit) {
  const ScfResult hf = solve("H2", "cc-pvtz");
  EXPECT_TRUE(hf.converged);
  // RHF/cc-pVTZ at r = 0.7414 A: about -1.13296 (HF limit -1.1336).
  EXPECT_NEAR(hf.energy, -1.13296, 5e-4);
}

TEST(Scf, OrbitalEnergiesOrdered) {
  const ScfResult hf = solve("H2O");
  for (std::size_t i = 1; i < hf.orbitalEnergies.size(); ++i)
    EXPECT_LE(hf.orbitalEnergies[i - 1], hf.orbitalEnergies[i] + 1e-10);
}

TEST(Scf, KoopmansIonizationReasonable) {
  // H2O HOMO around -0.39 Ha in STO-3G.
  const ScfResult hf = solve("H2O");
  EXPECT_NEAR(hf.orbitalEnergies[4], -0.39, 0.05);
}

TEST(Scf, RohfMatchesRhfForClosedShell) {
  const Molecule mol = makeMolecule("H2O");
  const BasisSet basis = buildBasis(mol, "sto-3g");
  const AoIntegrals ao = computeAoIntegrals(mol, basis);
  const ScfResult rhf = runRhf(ao, mol);
  const ScfResult rohf = runRohf(ao, mol);
  EXPECT_NEAR(rhf.energy, rohf.energy, 1e-7);
}

TEST(Scf, VirialRatioNearTwo) {
  // |V|/T ~ 2 at equilibrium-ish geometry for a near-complete basis.
  const Molecule mol = makeH2(0.7414);
  const BasisSet basis = buildBasis(mol, "cc-pvtz");
  const AoIntegrals ao = computeAoIntegrals(mol, basis);
  const ScfResult hf = runRhf(ao, mol);
  // Kinetic energy expectation from the MO density.
  linalg::Matrix d(ao.nao, ao.nao);
  for (int m = 0; m < ao.nao; ++m)
    for (int n = 0; n < ao.nao; ++n)
      d(m, n) = 2.0 * hf.c(m, 0) * hf.c(n, 0);
  const Real t = traceProduct(d, ao.t);
  const Real v = hf.energy - t;
  EXPECT_NEAR(-v / t, 2.0, 0.02);
}

TEST(Mp2, NegativeAndSizeReasonable) {
  const Molecule mol = makeMolecule("H2O");
  const BasisSet basis = buildBasis(mol, "sto-3g");
  const AoIntegrals ao = computeAoIntegrals(mol, basis);
  const ScfResult hf = runRhf(ao, mol);
  const MoIntegrals mo = transformToMo(ao, hf);
  const Real e2 = mp2CorrelationEnergy(mo);
  EXPECT_LT(e2, 0.0);
  EXPECT_NEAR(e2, -0.0356, 2e-3);  // H2O STO-3G MP2 correlation
}

TEST(Mp2, IndependentOfThreadCount) {
  // The per-occupied partial sums are added in ascending order, so the
  // energy is the same bit for bit whatever OpenMP team computes them.
  const Molecule mol = makeMolecule("H2O");
  const BasisSet basis = buildBasis(mol, "sto-3g");
  const AoIntegrals ao = computeAoIntegrals(mol, basis);
  const MoIntegrals mo = transformToMo(ao, runRhf(ao, mol));
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const Real one = mp2CorrelationEnergy(mo);
  omp_set_num_threads(4);
  // A schedule-dependent sum differs only in some calls, so make many.
  for (int call = 0; call < 50; ++call)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mp2CorrelationEnergy(mo)),
              std::bit_cast<std::uint64_t>(one))
        << "call " << call;
  omp_set_num_threads(saved);
}
