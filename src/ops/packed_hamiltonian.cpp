#include "ops/packed_hamiltonian.hpp"

#include <map>

namespace nnqs::ops {

std::size_t madeLayoutBytes(const SpinHamiltonian& h) {
  return h.nTerms() * (2 * static_cast<std::size_t>(h.nQubits) + 4 + 8);
}

std::size_t PackedHamiltonian::memoryBytes() const {
  // Unique XY masks: N bytes each; per string: N-byte YZ tuple + float64
  // premultiplied coefficient; plus the CSR index array (8 bytes/group).
  return nGroups() * (static_cast<std::size_t>(nQubits) + 8) +
         nTerms() * (static_cast<std::size_t>(nQubits) + 8);
}

PackedHamiltonian PackedHamiltonian::fromHamiltonian(const SpinHamiltonian& h) {
  // Algorithm 1: bucket strings by XY mask, premultiply the Y phase into the
  // coefficient, then compact into contiguous buffers with a range index.
  std::map<Bits128, std::vector<std::size_t>> groups;  // ordered => deterministic
  for (std::size_t i = 0; i < h.nTerms(); ++i) groups[h.strings[i].x].push_back(i);

  PackedHamiltonian p;
  p.nQubits = h.nQubits;
  p.constant = h.constant;
  p.xyUnique.reserve(groups.size());
  p.idxs.reserve(groups.size() + 1);
  p.yz.reserve(h.nTerms());
  p.coeffs.reserve(h.nTerms());
  p.idxs.push_back(0);
  for (const auto& [xyMask, members] : groups) {
    p.xyUnique.push_back(xyMask);
    for (std::size_t i : members) {
      const PauliString& s = h.strings[i];
      const Real phase = (s.yCount() % 4 == 2) ? -1.0 : 1.0;
      p.yz.push_back(s.z);
      p.coeffs.push_back(h.coeffs[i] * phase);
    }
    p.idxs.push_back(p.yz.size());
  }
  return p;
}

void PackedHamiltonian::groupCoefficients(std::size_t k, const Bits128* xs,
                                          std::size_t n, Real* out,
                                          unsigned char* parityScratch) const {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0;
  for (std::size_t i = idxs[k]; i < idxs[k + 1]; ++i) {
    batch::parityAndMask(xs, n, yz[i], parityScratch);
    const Real c = coeffs[i];
    for (std::size_t j = 0; j < n; ++j) out[j] += parityScratch[j] ? -c : c;
  }
}

Real PackedHamiltonian::matrixElement(Bits128 x, Bits128 xp) const {
  Real sum = (x == xp) ? constant : 0.0;
  for (std::size_t k = 0; k < nGroups(); ++k)
    if ((x ^ xyUnique[k]) == xp) sum += groupCoefficient(k, x);
  return sum;
}

}  // namespace nnqs::ops
