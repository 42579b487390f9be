#pragma once

#include <vector>

#include "ops/pauli.hpp"

namespace nnqs::ops {

/// Qubit (spin) Hamiltonian  H = constant + sum_i c_i P_i  with real c_i
/// (guaranteed by Hermiticity of the molecular Hamiltonian; all P_i have an
/// even number of Y operators).
struct SpinHamiltonian {
  int nQubits = 0;
  Real constant = 0;
  std::vector<Real> coeffs;
  std::vector<PauliString> strings;

  [[nodiscard]] std::size_t nTerms() const { return strings.size(); }

  /// Deterministic canonical order (by masks); keeps runs reproducible.
  void sortCanonical();

  /// <bra| H |ket> by scanning all strings — O(N_h), test/reference use only.
  [[nodiscard]] Real matrixElement(Bits128 bra, Bits128 ket) const;
};

}  // namespace nnqs::ops
