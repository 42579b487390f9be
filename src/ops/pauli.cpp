#include "ops/pauli.hpp"

#include <stdexcept>

namespace nnqs::ops {

namespace {
constexpr Complex kIPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
}

PauliString PauliString::fromString(const std::string& s) {
  PauliString p;
  int j = 0;
  for (char c : s) {
    switch (c) {
      case 'I': break;
      case 'X': p.x.set(j); break;
      case 'Y': p.x.set(j); p.z.set(j); break;
      case 'Z': p.z.set(j); break;
      default: throw std::invalid_argument("PauliString::fromString: bad char");
    }
    ++j;
  }
  return p;
}

PauliTerm multiply(const PauliString& a, const PauliString& b) {
  // Literal P = i^{|y|} X^x Z^z;  X^{x1}Z^{z1} X^{x2}Z^{z2}
  //           = (-1)^{z1.x2} X^{x1^x2} Z^{z1^z2}.
  PauliString out{a.x ^ b.x, a.z ^ b.z};
  int ipow = a.yCount() + b.yCount() - out.yCount();  // may be negative
  ipow = ((ipow % 4) + 4) % 4;
  Complex phase = kIPow[ipow];
  if (parityAnd(a.z, b.x)) phase = -phase;
  return {phase, out};
}

PauliSum multiply(const PauliSum& a, const PauliSum& b) {
  PauliSum out;
  out.reserve(a.size() * b.size());
  for (const auto& ta : a)
    for (const auto& tb : b) {
      PauliTerm prod = multiply(ta.string, tb.string);
      prod.coeff *= ta.coeff * tb.coeff;
      out.push_back(prod);
    }
  return out;
}

Complex applyPhase(const PauliString& p, Bits128 ket) {
  // P|ket> = i^{|y|} (-1)^{popcount(ket & z)} |ket ^ x>.
  Complex phase = kIPow[p.yCount() % 4];
  if (parityAnd(ket, p.z)) phase = -phase;
  return phase;
}

Complex matrixElement(const PauliString& p, Bits128 bra, Bits128 ket) {
  if ((ket ^ p.x) != bra) return {0, 0};
  return applyPhase(p, ket);
}

}  // namespace nnqs::ops
