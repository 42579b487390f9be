#pragma once

#include <cstddef>

#include "ops/hamiltonian.hpp"

namespace nnqs::ops {

/// Bytes of the Hamiltonian layout of Ref. 27 (MADE), paper Fig. 6(b), with
/// the paper's accounting: per Pauli string an XY and a YZ mask stored as
/// boolean tuples of one byte per qubit (numpy-style), a 4-byte Y count and
/// an 8-byte coefficient.  Fig. 9 compares PackedHamiltonian::memoryBytes
/// with it.
[[nodiscard]] std::size_t madeLayoutBytes(const SpinHamiltonian& h);

/// The paper's compressed layout, Fig. 6(c) / Algorithm 1: unique XY masks
/// with CSR-style ranges into the reorganized YZ masks and *premultiplied*
/// coefficients  c~ = c * Re[i^{#Y}]  (the Y phase is folded in; #Y is always
/// even for Hermitian molecular Hamiltonians).  All strings in group k couple
/// x to the same x' = x ^ xyUnique[k], so each coupled state is evaluated
/// exactly once during local-energy computation.
struct PackedHamiltonian {
  int nQubits = 0;
  Real constant = 0;
  std::vector<Bits128> xyUnique;
  std::vector<std::size_t> idxs;  ///< group k = [idxs[k], idxs[k+1]); size = nGroups+1
  std::vector<Bits128> yz;
  std::vector<Real> coeffs;       ///< premultiplied

  [[nodiscard]] std::size_t nGroups() const { return xyUnique.size(); }
  [[nodiscard]] std::size_t nTerms() const { return yz.size(); }
  [[nodiscard]] std::size_t memoryBytes() const;

  /// Algorithm 1 of the paper.
  static PackedHamiltonian fromHamiltonian(const SpinHamiltonian& h);

  /// Summed coupling coefficient of group k for input sample x:
  ///   sum_i c~_i (-1)^{popcount(x & yz_i)}.
  [[nodiscard]] Real groupCoefficient(std::size_t k, Bits128 x) const {
    Real c = 0;
    for (std::size_t i = idxs[k]; i < idxs[k + 1]; ++i)
      c += parityAnd(x, yz[i]) ? -coeffs[i] : coeffs[i];
    return c;
  }

  /// Batched groupCoefficient: out[j] = groupCoefficient(k, xs[j]) for
  /// j < n, with the loop order transposed — one pass per YZ string over all
  /// samples, so each string's mask/coefficient is loaded once per block and
  /// the sign stream runs on the batched Bits128 parity kernel
  /// (common/bits.hpp).  Per sample the additions happen in the same
  /// ascending-string order as the scalar method, so the results are
  /// bit-identical.  `parityScratch` must hold n bytes.
  void groupCoefficients(std::size_t k, const Bits128* xs, std::size_t n,
                         Real* out, unsigned char* parityScratch) const;

  /// <x|H|x'> via the packed data (reference implementation for tests).
  [[nodiscard]] Real matrixElement(Bits128 x, Bits128 xp) const;
};

}  // namespace nnqs::ops
