#include <gtest/gtest.h>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "common/rng.hpp"
#include "ops/jordan_wigner.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "scf/rhf.hpp"

using namespace nnqs;
using namespace nnqs::ops;

namespace {
SpinHamiltonian hamiltonianFor(const char* name) {
  const auto mol = chem::makeMolecule(name);
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  return jordanWigner(scf::transformToMo(ao, hf));
}
}  // namespace

class PackedHamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PackedHamTest, ReproducesMatrixElements) {
  const SpinHamiltonian h = hamiltonianFor(GetParam());
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  EXPECT_EQ(packed.nTerms(), h.nTerms());
  EXPECT_LE(packed.nGroups(), packed.nTerms());

  Rng rng(99);
  const int n = h.nQubits;
  for (int trial = 0; trial < 200; ++trial) {
    Bits128 x{rng.next() & ((n >= 64) ? ~0ull : ((1ull << n) - 1)), 0};
    // Coupled state via a random string's XY mask (guarantees some hits).
    const std::size_t k = rng.below(h.nTerms());
    const Bits128 xp = x ^ h.strings[k].x;
    EXPECT_NEAR(packed.matrixElement(x, xp), h.matrixElement(x, xp), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Molecules, PackedHamTest,
                         ::testing::Values("H2", "LiH", "BeH2", "H2O"));

TEST(PackedHamiltonian, GroupsPartitionTheStrings) {
  const SpinHamiltonian h = hamiltonianFor("H2O");
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  ASSERT_EQ(packed.idxs.size(), packed.nGroups() + 1);
  EXPECT_EQ(packed.idxs.front(), 0u);
  EXPECT_EQ(packed.idxs.back(), packed.nTerms());
  for (std::size_t k = 0; k + 1 < packed.idxs.size(); ++k)
    EXPECT_LT(packed.idxs[k], packed.idxs[k + 1]);
  // Unique masks are strictly ordered (deterministic layout).
  for (std::size_t k = 1; k < packed.nGroups(); ++k)
    EXPECT_LT(packed.xyUnique[k - 1], packed.xyUnique[k]);
}

TEST(PackedHamiltonian, MemoryReductionAround40Percent) {
  // Fig. 9's claim: the compressed layout saves ~40% vs the MADE layout.
  const SpinHamiltonian h = hamiltonianFor("H2O");
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  const double reduction =
      1.0 - static_cast<double>(packed.memoryBytes()) /
                static_cast<double>(madeLayoutBytes(h));
  EXPECT_GT(reduction, 0.15);
  EXPECT_LT(reduction, 0.70);
}

TEST(PackedHamiltonian, DiagonalGroupGivesDiagonalElement) {
  const SpinHamiltonian h = hamiltonianFor("LiH");
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  // Group with zero XY mask exists (all-Z strings) and reproduces <x|H|x>.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Bits128 x{rng.next() & ((1ull << h.nQubits) - 1), 0};
    EXPECT_NEAR(packed.matrixElement(x, x), h.matrixElement(x, x), 1e-10);
  }
}

TEST(PackedHamiltonian, BatchedGroupCoefficientsMatchScalar) {
  // groupCoefficients transposes the (string, sample) loop but keeps each
  // sample's additions in ascending-string order: bit-identical to the
  // scalar groupCoefficient.
  const SpinHamiltonian h = hamiltonianFor("LiH");
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  Rng rng(17);
  const std::size_t n = 37;  // odd size exercises the SIMD tail
  std::vector<Bits128> xs(n);
  for (auto& x : xs) x = Bits128{rng.next() & ((1ull << h.nQubits) - 1), 0};
  std::vector<Real> batched(n);
  std::vector<unsigned char> scratch(n);
  for (std::size_t k = 0; k < packed.nGroups(); ++k) {
    packed.groupCoefficients(k, xs.data(), n, batched.data(), scratch.data());
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(batched[j], packed.groupCoefficient(k, xs[j]))
          << "k=" << k << " j=" << j;
  }
}

TEST(PackedHamiltonian, PremultipliedCoefficientSigns) {
  // For strings with #Y % 4 == 2 the stored coefficient flips sign.
  SpinHamiltonian h;
  h.nQubits = 4;
  h.strings.push_back(PauliString::fromString("YYII"));  // 2 Ys
  h.coeffs.push_back(0.25);
  h.strings.push_back(PauliString::fromString("YYYY"));  // 4 Ys
  h.coeffs.push_back(0.5);
  const auto packed = PackedHamiltonian::fromHamiltonian(h);
  // Find which group got which: both have distinct XY masks.
  for (std::size_t k = 0; k < packed.nGroups(); ++k) {
    const std::size_t i = packed.idxs[k];
    if (packed.xyUnique[k] == PauliString::fromString("YYII").x)
      EXPECT_NEAR(packed.coeffs[i], -0.25, 1e-15);
    else
      EXPECT_NEAR(packed.coeffs[i], 0.5, 1e-15);
  }
}
