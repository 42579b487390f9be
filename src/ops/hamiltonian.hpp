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

  /// y += H x over the full 2^n space (n <= ~24; cross-validation with FCI).
  void applyDense(const std::vector<Real>& x, std::vector<Real>& y) const;
  [[nodiscard]] std::vector<Real> denseDiagonal() const;
};

/// Ground-state energy of a small Hamiltonian via Davidson on the dense
/// 2^n-dimensional space (optionally restricted to fixed particle numbers).
Real exactGroundState(const SpinHamiltonian& h);

}  // namespace nnqs::ops
