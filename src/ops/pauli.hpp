#pragma once

#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace nnqs::ops {

/// A literal Pauli string P = prod_j W_j with W_j in {I,X,Y,Z} encoded by two
/// masks: W_j = I (x=0,z=0), X (1,0), Y (1,1), Z (0,1).
struct PauliString {
  Bits128 x, z;

  [[nodiscard]] Bits128 yMask() const { return x & z; }
  [[nodiscard]] int yCount() const { return yMask().popcount(); }
  [[nodiscard]] int weight() const { return (x | z).popcount(); }

  friend constexpr bool operator==(const PauliString&, const PauliString&) = default;
  friend constexpr auto operator<=>(const PauliString& a, const PauliString& b) {
    if (auto c = a.x <=> b.x; c != 0) return c;
    return a.z <=> b.z;
  }

  /// "XIZY..." (qubit 0 first).
  static PauliString fromString(const std::string& s);
};

struct PauliStringHash {
  std::size_t operator()(const PauliString& p) const noexcept {
    const std::size_t h1 = Bits128Hash{}(p.x);
    const std::size_t h2 = Bits128Hash{}(p.z);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
  }
};

/// One term of an operator expansion: coeff * P.
struct PauliTerm {
  Complex coeff;
  PauliString string;
};

using PauliSum = std::vector<PauliTerm>;

/// Literal product P1 * P2 = phase * P12 (phase in {1,i,-1,-i}).
/// Accounts for the i factors hidden in Y = iXZ.
PauliTerm multiply(const PauliString& a, const PauliString& b);

/// Product of two operator expansions (all pairwise products, uncombined).
PauliSum multiply(const PauliSum& a, const PauliSum& b);

/// P|ket> = phase |ket ^ x>; returns the phase.
Complex applyPhase(const PauliString& p, Bits128 ket);

/// <bra| P |ket>  (0 unless bra == ket ^ x).
Complex matrixElement(const PauliString& p, Bits128 bra, Bits128 ket);

}  // namespace nnqs::ops
