#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <omp.h>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "fci/fci.hpp"
#include "ops/jordan_wigner.hpp"
#include "oracle.hpp"
#include "scf/rhf.hpp"

using namespace nnqs;
using namespace nnqs::ops;

namespace {
scf::MoIntegrals moFor(const char* name) {
  const auto mol = chem::makeMolecule(name);
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  return scf::transformToMo(ao, hf);
}
}  // namespace

TEST(JordanWigner, LadderAnticommutation) {
  // {a_p, a+_q} = delta_pq, {a_p, a_q} = 0 — verified as Pauli sums.
  const int n = 6;
  auto combine = [](const PauliSum& sum) {
    std::map<std::pair<Bits128, Bits128>, Complex> acc;
    for (const auto& t : sum) acc[{t.string.x, t.string.z}] += t.coeff;
    return acc;
  };
  for (int p = 0; p < n; ++p)
    for (int q = 0; q < n; ++q) {
      PauliSum anti = multiply(jwLadder(p, false), jwLadder(q, true));
      const PauliSum other = multiply(jwLadder(q, true), jwLadder(p, false));
      anti.insert(anti.end(), other.begin(), other.end());
      auto acc = combine(anti);
      for (const auto& [key, coeff] : acc) {
        const bool isIdentity = key.first.none() && key.second.none();
        const Complex expect = (isIdentity && p == q) ? Complex{1, 0} : Complex{0, 0};
        EXPECT_NEAR(std::abs(coeff - expect), 0.0, 1e-12) << p << "," << q;
      }
      // {a_p, a_q} = 0.
      PauliSum aa = multiply(jwLadder(p, false), jwLadder(q, false));
      const PauliSum aa2 = multiply(jwLadder(q, false), jwLadder(p, false));
      aa.insert(aa.end(), aa2.begin(), aa2.end());
      for (const auto& [key, coeff] : combine(aa))
        EXPECT_NEAR(std::abs(coeff), 0.0, 1e-12);
    }
}

TEST(JordanWigner, NumberOperatorIsHalfIMinusZ) {
  // a+_p a_p -> (I - Z_p)/2.
  const PauliSum num = multiply(jwLadder(2, true), jwLadder(2, false));
  std::map<std::pair<Bits128, Bits128>, Complex> acc;
  for (const auto& t : num) acc[{t.string.x, t.string.z}] += t.coeff;
  PauliString z2 = PauliString::fromString("IIZ");
  EXPECT_NEAR(std::abs(acc[{Bits128{}, Bits128{}}] - Complex{0.5, 0}), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(acc[{z2.x, z2.z}] - Complex{-0.5, 0}), 0.0, 1e-14);
}

TEST(JordanWigner, H2HamiltonianStructure) {
  const auto mo = moFor("H2");
  const SpinHamiltonian h = jordanWigner(mo);
  EXPECT_EQ(h.nQubits, 4);
  // The canonical H2/STO-3G qubit Hamiltonian has 14 non-identity strings
  // (paper Fig. 6a counts 15 including the identity).
  EXPECT_EQ(h.nTerms(), 14u);
  // All coefficients real and strings with even Y count.
  for (std::size_t i = 0; i < h.nTerms(); ++i)
    EXPECT_EQ(h.strings[i].yCount() % 2, 0);
}

TEST(JordanWigner, HamiltonianIsHermitianOnBasisStates) {
  const auto mo = moFor("H2");
  const SpinHamiltonian h = jordanWigner(mo);
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      EXPECT_NEAR(h.matrixElement(Bits128{a, 0}, Bits128{b, 0}),
                  h.matrixElement(Bits128{b, 0}, Bits128{a, 0}), 1e-12);
}

TEST(JordanWigner, HfDeterminantDiagonalMatchesHfEnergy) {
  const auto mol = chem::makeMolecule("LiH");
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  const auto mo = scf::transformToMo(ao, hf);
  const SpinHamiltonian h = jordanWigner(mo);
  const Bits128 hfDet = fci::hartreeFockDeterminant(mo.nAlpha, mo.nBeta);
  EXPECT_NEAR(h.matrixElement(hfDet, hfDet), hf.energy, 1e-8);
}

TEST(JordanWigner, MatchesFciGroundState) {
  // Independent cross-validation: determinant FCI vs Davidson on the qubit
  // Hamiltonian must agree to numerical precision.
  for (const char* name : {"H2", "LiH"}) {
    const auto mo = moFor(name);
    const SpinHamiltonian h = jordanWigner(mo);
    const Real eQubit = oracle::exactGroundState(h);
    const Real eFci = fci::runFci(mo).energy;
    EXPECT_NEAR(eQubit, eFci, 1e-7) << name;
  }
}

TEST(JordanWigner, ExactGroundStateIndependentOfThreadCount) {
  // oracle::applyDense sums each row of H x in ascending term order and
  // writes it from one thread, so the Davidson energy is the same bit for
  // bit whatever OpenMP team runs it.
  const SpinHamiltonian h = jordanWigner(moFor("LiH"));
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const Real one = oracle::exactGroundState(h);
  omp_set_num_threads(4);
  for (int call = 0; call < 3; ++call)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle::exactGroundState(h)),
              std::bit_cast<std::uint64_t>(one))
        << "call " << call;
  omp_set_num_threads(saved);
}

TEST(JordanWigner, TermCountScalesAsN4) {
  // N_h = O(N^4): crude growth check between H2 (4 qubits) and H2O (14).
  const SpinHamiltonian h2 = jordanWigner(moFor("H2"));
  const SpinHamiltonian h2o = jordanWigner(moFor("H2O"));
  EXPECT_GT(h2o.nTerms(), 50 * h2.nTerms() / 10);
  EXPECT_LT(h2o.nTerms(), 3000u);
}

TEST(JordanWigner, ParticleNumberConserved) {
  // [H, N] = 0: H never couples states of different electron number.
  const auto mo = moFor("H2");
  const SpinHamiltonian h = jordanWigner(mo);
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b) {
      if (std::popcount(a) == std::popcount(b)) continue;
      EXPECT_NEAR(h.matrixElement(Bits128{a, 0}, Bits128{b, 0}), 0.0, 1e-12);
    }
}

TEST(JordanWigner, CoefficientsIndependentOfThreadCount) {
  // Every coefficient is summed in one fixed order, so the Hamiltonian is
  // the same bit for bit whatever OpenMP team the build would get.
  const auto mo = moFor("H2O");
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const SpinHamiltonian one = jordanWigner(mo);
  omp_set_num_threads(4);
  const SpinHamiltonian four = jordanWigner(mo);
  omp_set_num_threads(saved);
  ASSERT_EQ(one.nTerms(), four.nTerms());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(one.constant),
            std::bit_cast<std::uint64_t>(four.constant));
  for (std::size_t i = 0; i < one.nTerms(); ++i) {
    ASSERT_EQ(one.strings[i], four.strings[i]) << "i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one.coeffs[i]),
              std::bit_cast<std::uint64_t>(four.coeffs[i]))
        << "i=" << i;
  }
}
