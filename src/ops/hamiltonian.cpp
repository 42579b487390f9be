#include "ops/hamiltonian.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "linalg/davidson.hpp"

namespace nnqs::ops {

void SpinHamiltonian::sortCanonical() {
  std::vector<std::size_t> order(strings.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return strings[a] < strings[b];
  });
  std::vector<Real> c2(coeffs.size());
  std::vector<PauliString> s2(strings.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    c2[i] = coeffs[order[i]];
    s2[i] = strings[order[i]];
  }
  coeffs = std::move(c2);
  strings = std::move(s2);
}

Real SpinHamiltonian::matrixElement(Bits128 bra, Bits128 ket) const {
  Real sum = (bra == ket) ? constant : 0.0;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    const Complex v = ops::matrixElement(strings[i], bra, ket);
    sum += coeffs[i] * v.real();
  }
  return sum;
}

void SpinHamiltonian::applyDense(const std::vector<Real>& x, std::vector<Real>& y) const {
  const std::size_t dim = std::size_t{1} << nQubits;
  if (x.size() != dim || y.size() != dim)
    throw std::invalid_argument("applyDense: dimension mismatch");
  // A pull sweep: each bra b sums its own row, constant * x[b] and then
  // c_i * <b|P_i|b ^ x_i> * x[b ^ x_i] in ascending i, and only its thread
  // writes y[b], so the result does not depend on the OpenMP team.  Zero
  // entries of x (all but one particle-number sector in Davidson) are
  // skipped before the phase is formed.
#pragma omp parallel for schedule(static)
  for (std::size_t bra = 0; bra < dim; ++bra) {
    const Bits128 braBits{static_cast<std::uint64_t>(bra), 0};
    Real acc = constant * x[bra];
    for (std::size_t i = 0; i < strings.size(); ++i) {
      const Bits128 ketBits = braBits ^ strings[i].x;
      const Real xv = x[ketBits.lo];
      if (xv == 0.0) continue;
      acc += coeffs[i] * applyPhase(strings[i], ketBits).real() * xv;
    }
    y[bra] += acc;
  }
}

std::vector<Real> SpinHamiltonian::denseDiagonal() const {
  const std::size_t dim = std::size_t{1} << nQubits;
  std::vector<Real> diag(dim, constant);
#pragma omp parallel for schedule(static)
  for (std::size_t ket = 0; ket < dim; ++ket) {
    const Bits128 ketBits{static_cast<std::uint64_t>(ket), 0};
    Real d = constant;
    for (std::size_t i = 0; i < strings.size(); ++i) {
      if (strings[i].x.any()) continue;  // off-diagonal
      d += coeffs[i] * applyPhase(strings[i], ketBits).real();
    }
    diag[ket] = d;
  }
  return diag;
}

Real exactGroundState(const SpinHamiltonian& h) {
  if (h.nQubits > 24)
    throw std::invalid_argument("exactGroundState: too many qubits for dense solve");
  const auto diag = h.denseDiagonal();
  linalg::DavidsonOptions opts;
  opts.residualTol = 1e-9;
  opts.maxIterations = 400;
  auto res = linalg::davidsonLowest(
      [&](const std::vector<Real>& x, std::vector<Real>& y) { h.applyDense(x, y); },
      diag, opts);
  return res.eigenvalue;
}

}  // namespace nnqs::ops
