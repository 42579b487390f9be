#include <gtest/gtest.h>

#include <stdexcept>

#include "ops/pauli.hpp"

using namespace nnqs;
using namespace nnqs::ops;

namespace {
PauliString ps(const std::string& s) { return PauliString::fromString(s); }
}  // namespace

TEST(Pauli, FromStringSetsTheMasks) {
  // Qubit 0 first: X sets x, Z sets z, Y sets both.
  const PauliString p = ps("IXYZ");
  EXPECT_EQ(p.x, (Bits128{0b0110, 0}));
  EXPECT_EQ(p.z, (Bits128{0b1100, 0}));
  EXPECT_EQ(ps("YYII"), (PauliString{Bits128{0b0011, 0}, Bits128{0b0011, 0}}));
  EXPECT_THROW(ps("IXQ"), std::invalid_argument);
}

TEST(Pauli, YCountAndWeight) {
  EXPECT_EQ(ps("IXYZ").yCount(), 1);
  EXPECT_EQ(ps("IXYZ").weight(), 3);
  EXPECT_EQ(ps("YYYY").yCount(), 4);
}

TEST(Pauli, SingleQubitAlgebra) {
  // XY = iZ, YX = -iZ, ZX = iY, XZ = -iY, YZ = iX, ZY = -iX, XX = I.
  struct Case {
    const char *a, *b, *prod;
    Complex phase;
  };
  const Case cases[] = {
      {"X", "Y", "Z", {0, 1}},  {"Y", "X", "Z", {0, -1}},
      {"Z", "X", "Y", {0, 1}},  {"X", "Z", "Y", {0, -1}},
      {"Y", "Z", "X", {0, 1}},  {"Z", "Y", "X", {0, -1}},
      {"X", "X", "I", {1, 0}},  {"Y", "Y", "I", {1, 0}},
      {"Z", "Z", "I", {1, 0}},
  };
  for (const auto& c : cases) {
    const PauliTerm t = multiply(ps(c.a), ps(c.b));
    EXPECT_EQ(t.string, ps(c.prod)) << c.a << "*" << c.b;
    EXPECT_NEAR(std::abs(t.coeff - c.phase), 0.0, 1e-15) << c.a << "*" << c.b;
  }
}

TEST(Pauli, MultiQubitProductPhases) {
  // (X0 Y1)(Y0 Y1) = (XY)(YY) = (iZ)(I) = i Z0.
  const PauliTerm t = multiply(ps("XY"), ps("YY"));
  EXPECT_EQ(t.string, ps("ZI"));
  EXPECT_NEAR(std::abs(t.coeff - Complex{0, 1}), 0.0, 1e-15);
}

TEST(Pauli, ApplyPhaseMatchesDefinition) {
  // Z|1> = -|1>, Z|0> = |0>.
  Bits128 one = fromBitString("1"), zero;
  EXPECT_EQ(applyPhase(ps("Z"), one), (Complex{-1, 0}));
  EXPECT_EQ(applyPhase(ps("Z"), zero), (Complex{1, 0}));
  // Y|0> = i|1>: phase i.
  EXPECT_EQ(applyPhase(ps("Y"), zero), (Complex{0, 1}));
  // Y|1> = -i|0>.
  EXPECT_EQ(applyPhase(ps("Y"), one), (Complex{0, -1}));
}

TEST(Pauli, MatrixElementSelectsCoupledState) {
  const PauliString p = ps("XZ");
  const Bits128 ket = fromBitString("10");  // qubit1=1, qubit0=0
  // X0 flips qubit 0: bra must be "11".
  EXPECT_NE(matrixElement(p, fromBitString("11"), ket), (Complex{0, 0}));
  EXPECT_EQ(matrixElement(p, fromBitString("00"), ket), (Complex{0, 0}));
  // Z on qubit 1 (set) gives -1.
  EXPECT_EQ(matrixElement(p, fromBitString("11"), ket), (Complex{-1, 0}));
}

TEST(Pauli, ProductIsAssociative) {
  const PauliString a = ps("XYZI"), b = ps("ZZXY"), c = ps("YIXZ");
  const PauliTerm ab = multiply(a, b);
  const PauliTerm bc = multiply(b, c);
  const PauliTerm left = multiply(ab.string, c);
  const PauliTerm right = multiply(a, bc.string);
  EXPECT_EQ(left.string, right.string);
  EXPECT_NEAR(std::abs(ab.coeff * left.coeff - bc.coeff * right.coeff), 0.0, 1e-15);
}

TEST(Pauli, HermitianSquareIsIdentity) {
  for (const char* s : {"XYZY", "ZZZZ", "XIXI", "YYXX"}) {
    const PauliTerm t = multiply(ps(s), ps(s));
    EXPECT_TRUE(t.string.x.none() && t.string.z.none());
    EXPECT_NEAR(std::abs(t.coeff - Complex{1, 0}), 0.0, 1e-15);
  }
}
