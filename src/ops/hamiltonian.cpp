#include "ops/hamiltonian.hpp"

#include <algorithm>
#include <numeric>

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

}  // namespace nnqs::ops
