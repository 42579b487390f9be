// Hamiltonian inspection tool: builds the qubit Hamiltonian of any molecule
// in the built-in library and prints structure statistics (the data behind
// Fig. 6 / Fig. 9).
//
// Usage: hamiltonian_tools [molecule=LiH] [basis=sto-3g]

#include <algorithm>
#include <cstdio>

#include "chem/basis_set.hpp"
#include "common/logging.hpp"
#include "chem/geometry_library.hpp"
#include "ops/jordan_wigner.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "scf/rhf.hpp"

int main(int argc, char** argv) {
  using namespace nnqs;
  nnqs::log::setLevel(nnqs::log::Level::kWarn);
  if (argc > 3) {
    std::fprintf(stderr, "usage: %s [molecule=LiH] [basis=sto-3g]\n", argv[0]);
    return 2;
  }
  const std::string name = argc > 1 ? argv[1] : "LiH";
  const std::string basisName = argc > 2 ? argv[2] : "sto-3g";

  const chem::Molecule mol = chem::makeMolecule(name);
  const chem::BasisSet basis = chem::buildBasis(mol, basisName);
  const scf::AoIntegrals ao = scf::computeAoIntegrals(mol, basis);
  const scf::ScfResult hf = scf::runHartreeFock(ao, mol);
  const scf::MoIntegrals mo = scf::transformToMo(ao, hf);
  const ops::SpinHamiltonian ham = ops::jordanWigner(mo);

  std::printf("%s / %s: %d electrons in %d spin orbitals (qubits)\n",
              mol.formula().c_str(), basisName.c_str(), mol.nElectrons(),
              ham.nQubits);
  std::printf("E(HF) = %.6f Ha, E_nuc = %.6f Ha\n", hf.energy, ao.enuc);
  std::printf("Pauli strings: %zu (+ identity %.6f)\n", ham.nTerms(), ham.constant);

  // Weight histogram (locality structure of molecular Hamiltonians).
  std::vector<int> byWeight(static_cast<std::size_t>(ham.nQubits) + 1, 0);
  Real maxCoeff = 0;
  for (std::size_t i = 0; i < ham.nTerms(); ++i) {
    byWeight[static_cast<std::size_t>(ham.strings[i].weight())]++;
    maxCoeff = std::max(maxCoeff, std::abs(ham.coeffs[i]));
  }
  std::printf("largest |coefficient| = %.4f\nweight histogram:\n", maxCoeff);
  for (std::size_t w = 0; w < byWeight.size(); ++w)
    if (byWeight[w] > 0) std::printf("  weight %2zu: %d strings\n", w, byWeight[w]);

  const std::size_t madeBytes = ops::madeLayoutBytes(ham);
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(ham);
  std::printf("packed layouts: MADE %zu bytes, compressed %zu bytes (%.1f%% saved),"
              " %zu unique couplings\n",
              madeBytes, packed.memoryBytes(),
              100.0 * (1.0 - static_cast<double>(packed.memoryBytes()) /
                                 static_cast<double>(madeBytes)),
              packed.nGroups());
  return 0;
}
