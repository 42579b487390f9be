#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "nn/kernels/kernel_table.hpp"

using nnqs::Bits128;

TEST(Bits128, SetGetFlip) {
  Bits128 b;
  EXPECT_TRUE(b.none());
  for (int j : {0, 1, 63, 64, 100, 127}) {
    b.set(j);
    EXPECT_TRUE(b.get(j)) << j;
  }
  EXPECT_EQ(b.popcount(), 6);
  b.flip(63);
  EXPECT_FALSE(b.get(63));
  b.set(100, false);
  EXPECT_FALSE(b.get(100));
  EXPECT_EQ(b.popcount(), 4);
}

TEST(Bits128, BitwiseOps) {
  Bits128 a = nnqs::fromBitString("1100");
  Bits128 b = nnqs::fromBitString("1010");
  EXPECT_EQ((a & b), nnqs::fromBitString("1000"));
  EXPECT_EQ((a | b), nnqs::fromBitString("1110"));
  EXPECT_EQ((a ^ b), nnqs::fromBitString("0110"));
}

TEST(Bits128, LowMask) {
  EXPECT_EQ(Bits128::lowMask(0).popcount(), 0);
  EXPECT_EQ(Bits128::lowMask(1).popcount(), 1);
  EXPECT_EQ(Bits128::lowMask(64).popcount(), 64);
  EXPECT_EQ(Bits128::lowMask(65).popcount(), 65);
  EXPECT_EQ(Bits128::lowMask(128).popcount(), 128);
  EXPECT_TRUE(Bits128::lowMask(70).get(69));
  EXPECT_FALSE(Bits128::lowMask(70).get(70));
}

TEST(Bits128, OrderingMatchesIntegerValue) {
  Bits128 small{5, 0}, mid{0, 1}, big{7, 1};
  EXPECT_LT(small, mid);
  EXPECT_LT(mid, big);
  EXPECT_LT(small, big);
}

TEST(Bits128, StringRoundTrip) {
  const std::string s = "1011001110001111";
  EXPECT_EQ(nnqs::toBitString(nnqs::fromBitString(s), 16), s);
}

TEST(Bits128, ParityAnd) {
  Bits128 a = nnqs::fromBitString("1110");
  Bits128 b = nnqs::fromBitString("0110");
  EXPECT_EQ(nnqs::parityAnd(a, b), 0);
  b = nnqs::fromBitString("0100");
  EXPECT_EQ(nnqs::parityAnd(a, b), 1);
}

TEST(Bits128, HashDistinguishes) {
  nnqs::Bits128Hash h;
  EXPECT_NE(h(Bits128{1, 0}), h(Bits128{0, 1}));
  EXPECT_NE(h(Bits128{2, 3}), h(Bits128{3, 2}));
}

TEST(BitsBatch, DispatchedKernelsMatchScalarReference) {
  // The dispatched (possibly SIMD) batched kernels, and those of every ISA
  // tier the host runs, must be bit-identical to the scalar references for
  // every batch size, including the vector tails.
  std::uint64_t state = 0x243F6A8885A308D3ull;  // splitmix64
  auto next = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100}) {
    std::vector<Bits128> xs(n);
    for (auto& x : xs) x = Bits128{next(), next()};
    const Bits128 mask{next(), next()};

    std::vector<unsigned char> pRef(n), pDisp(n);
    nnqs::batch::parityAndMaskScalar(xs.data(), n, mask, pRef.data());
    nnqs::batch::parityAndMask(xs.data(), n, mask, pDisp.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pRef[i], pDisp[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(static_cast<int>(pRef[i]), nnqs::parityAnd(xs[i], mask));
    }
    for (const auto* tier : nnqs::nn::kernels::detail::hostTiers()) {
      std::vector<unsigned char> pTier(n);
      tier->parityAndMask(xs.data(), n, mask, pTier.data());
      EXPECT_EQ(pRef, pTier) << tier->name << " n=" << n;
    }
  }
}

TEST(BitsBatch, BackendNameIsNonEmpty) {
  const char* name = nnqs::batch::backendName();
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::string(name).size(), 0u);
}

class Bits128Param : public ::testing::TestWithParam<int> {};

TEST_P(Bits128Param, PopcountMatchesLoop) {
  const int n = GetParam();
  Bits128 b = Bits128::lowMask(n);
  int count = 0;
  for (int j = 0; j < 128; ++j) count += b.get(j);
  EXPECT_EQ(count, n);
  EXPECT_EQ(b.popcount(), n);
  EXPECT_EQ(b.parity(), n & 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, Bits128Param,
                         ::testing::Values(0, 1, 7, 31, 63, 64, 65, 96, 127, 128));
