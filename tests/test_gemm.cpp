// GEMM kernel backends: exact (tolerance-0) agreement between the naive
// reference loop, the scalar blocked path, and the SIMD/threaded blocked
// backends of every ISA tier the host runs, over ragged/odd shapes (few-row
// ones, whose B is read in place, and packed ones), all four operand
// layouts, bias / accumulate init modes, empty rows, and the linalg::matmul
// / matmulTN and Linear rewirings.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/kernel_table.hpp"
#include "nn/modules.hpp"

using namespace nnqs;
using namespace nnqs::nn;
using kernels::GemmArgs;
using kernels::KernelPolicy;
using kernels::detail::KernelTable;

namespace {

/// n Reals that end exactly where an unreadable page begins, so a kernel
/// access past the last element faults in every build: ASan checks plain
/// loads, but not the masked loads, stores and gathers of the SIMD tiers.
class GuardedReals {
 public:
  explicit GuardedReals(std::size_t n) : n_(n) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t dataBytes = (n * sizeof(Real) + page - 1) / page * page;
    bytes_ = dataBytes + page;
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) throw std::bad_alloc();
    char* guard = static_cast<char*>(base_) + dataBytes;
    if (mprotect(guard, page, PROT_NONE) != 0) throw std::bad_alloc();
    p_ = reinterpret_cast<Real*>(guard) - n;
  }
  ~GuardedReals() { munmap(base_, bytes_); }
  GuardedReals(const GuardedReals&) = delete;
  GuardedReals& operator=(const GuardedReals&) = delete;

  Real* data() { return p_; }
  const Real* data() const { return p_; }
  Real* begin() { return p_; }
  Real* end() { return p_ + n_; }
  Real operator[](std::size_t i) const { return p_[i]; }

 private:
  std::size_t n_;
  std::size_t bytes_ = 0;
  void* base_ = nullptr;
  Real* p_ = nullptr;
};

/// A randomized GEMM problem owning exact-size operand buffers; run()
/// returns a fresh C.
struct Problem {
  Index m, n, k;
  bool transA, transB;
  GuardedReals a, b;
  std::vector<Real> bias, c0;

  Problem(Index m_, Index n_, Index k_, bool ta, bool tb, Rng& rng)
      : m(m_), n(n_), k(k_), transA(ta), transB(tb),
        a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n)),
        bias(static_cast<std::size_t>(n)), c0(static_cast<std::size_t>(m * n)) {
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    for (auto& v : bias) v = rng.normal();
    for (auto& v : c0) v = rng.normal();  // accumulate-mode initial C
  }

  /// mode 0: C = A B; mode 1: C = bias + A B; mode 2: C += A B (from c0).
  [[nodiscard]] std::vector<Real> run(
      KernelPolicy policy, int mode,
      const KernelTable& tier = kernels::detail::hostKernels()) const {
    GuardedReals c(static_cast<std::size_t>(m * n));
    if (mode == 2)
      std::copy(c0.begin(), c0.end(), c.begin());
    else
      std::fill(c.begin(), c.end(), -7.0);
    GemmArgs g;
    g.m = m;
    g.n = n;
    g.k = k;
    g.a = a.data();
    g.lda = transA ? m : k;
    g.transA = transA;
    g.b = b.data();
    g.ldb = transB ? k : n;
    g.transB = transB;
    g.c = c.data();
    g.ldc = n;
    if (mode == 1) g.bias = bias.data();
    if (mode == 2) g.accumulate = true;
    kernels::detail::gemm(g, policy, tier);
    return {c.begin(), c.end()};
  }

  /// Independent naive evaluation of the contract (not via the backend):
  /// one std::fma chain per element, ascending l.
  [[nodiscard]] std::vector<Real> reference(int mode) const {
    std::vector<Real> c(static_cast<std::size_t>(m * n));
    for (Index i = 0; i < m; ++i)
      for (Index j = 0; j < n; ++j) {
        Real s = mode == 1 ? bias[static_cast<std::size_t>(j)]
                           : (mode == 2 ? c0[static_cast<std::size_t>(i * n + j)] : 0.0);
        for (Index l = 0; l < k; ++l) {
          const Real av = transA ? a[static_cast<std::size_t>(l * m + i)]
                                 : a[static_cast<std::size_t>(i * k + l)];
          const Real bv = transB ? b[static_cast<std::size_t>(j * k + l)]
                                 : b[static_cast<std::size_t>(l * n + j)];
          s = std::fma(av, bv, s);
        }
        c[static_cast<std::size_t>(i * n + j)] = s;
      }
    return c;
  }
};

void expectSame(const std::vector<Real>& ref, const std::vector<Real>& got,
                const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)  // bitwise: -0.0 differs from +0.0
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[i]), std::bit_cast<std::uint64_t>(got[i]))
        << what << " c[" << i << "]: " << ref[i] << " vs " << got[i];
}

}  // namespace

TEST(Gemm, BackendsBitIdenticalOnRaggedShapes) {
  // Odd everything: panel tails (n mod 16 / mod 8), row-block and MR tails
  // (m mod 64, and every remainder mod MR: 8 on AVX-512, 6 on AVX2),
  // multi-strip k (> 384), and single rows/cols, on every ISA tier the host
  // runs.  Then the few-row problems on both sides of the in-place row
  // cutoff (kInPlaceRows = 8 in gemm_dispatch.cpp): the phase MLP's
  // 512-wide layers, its 512 -> 1 output and ragged panels, at one strip and
  // across the strip boundary.  Every operand ends at an unreadable page, so
  // a lane read past B's last column faults.  kScalar runs each tier's own
  // build of the reference, and every one must equal the naive loop.
  Rng rng(2025);
  struct Shape {
    Index m, n, k;
  };
  std::vector<Shape> shapes = {
      {1, 1, 1},    {1, 17, 5},   {4, 16, 8},    {5, 3, 7},
      {33, 21, 13}, {64, 192, 64}, {65, 15, 70}, {7, 130, 401},  // k > one strip
      {130, 7, 3},  {2, 8, 390}, {14, 21, 9},  {23, 16, 40},
  };
  for (const Index m : {1, 3, 6, 8, 9})
    for (const Index n : {1, 17, 512})
      for (const Index k : {14, 512}) shapes.push_back({m, n, k});
  for (const auto& s : shapes)
    for (const bool ta : {false, true})
      for (const bool tb : {false, true})
        for (int mode = 0; mode < 3; ++mode) {
          Problem p(s.m, s.n, s.k, ta, tb, rng);
          const auto ref = p.reference(mode);
          for (const KernelTable* tier : kernels::detail::hostTiers()) {
            const std::string name = tier->name;
            expectSame(ref, p.run(KernelPolicy::kScalar, mode, *tier), name + " scalar ref");
            expectSame(ref, p.run(KernelPolicy::kSimd, mode, *tier), name + " simd");
            expectSame(ref, p.run(KernelPolicy::kThreaded, mode, *tier), name + " threaded");
            expectSame(ref, p.run(KernelPolicy::kAuto, mode, *tier), name + " auto");
          }
        }
}

TEST(Gemm, EmptyDimensionsAreHandled) {
  Rng rng(3);
  for (auto policy : {KernelPolicy::kScalar, KernelPolicy::kSimd,
                      KernelPolicy::kThreaded, KernelPolicy::kAuto}) {
    // m = 0: nothing to write.
    Problem pm(0, 4, 3, false, false, rng);
    EXPECT_TRUE(pm.run(policy, 0).empty());
    // k = 0: C = init only (zero / bias / untouched accumulator).
    Problem pk(3, 4, 0, false, false, rng);
    const auto zero = pk.run(policy, 0);
    for (Real v : zero) EXPECT_EQ(v, 0.0);
    const auto biased = pk.run(policy, 1);
    for (Index i = 0; i < 3; ++i)
      for (Index j = 0; j < 4; ++j)
        EXPECT_EQ(biased[static_cast<std::size_t>(i * 4 + j)],
                  pk.bias[static_cast<std::size_t>(j)]);
    const auto kept = pk.run(policy, 2);
    EXPECT_EQ(kept, pk.c0);
  }
}

TEST(Gemm, PolicyResolution) {
  // kAuto threads only past the work threshold; explicit policies stick.
  EXPECT_EQ(kernels::resolveGemmPolicy(KernelPolicy::kAuto, 4, 4, 4),
            KernelPolicy::kSimd);
  EXPECT_EQ(kernels::resolveGemmPolicy(KernelPolicy::kAuto, 256, 256, 256),
            KernelPolicy::kThreaded);
  EXPECT_EQ(kernels::resolveGemmPolicy(KernelPolicy::kScalar, 256, 256, 256),
            KernelPolicy::kScalar);
  EXPECT_EQ(kernels::resolveGemmPolicy(KernelPolicy::kSimd, 256, 256, 256),
            KernelPolicy::kSimd);
}

TEST(Gemm, LinearForwardMatchesHandLoop) {
  // The Linear rewiring end to end: y = x W^T + b, bit-identical to the
  // naive per-row loop under the contract's fma chain.
  Rng rng(11);
  const Index in = 19, out = 23, rows = 9;
  Linear lin(in, out, rng, "t");
  std::vector<Real> x(static_cast<std::size_t>(rows * in));
  for (auto& v : x) v = rng.normal();
  std::vector<Real> y(static_cast<std::size_t>(rows * out));
  lin.forwardInto(x.data(), rows, y.data(), KernelPolicy::kAuto);
  for (Index r = 0; r < rows; ++r)
    for (Index o = 0; o < out; ++o) {
      Real s = lin.b.value[static_cast<std::size_t>(o)];
      for (Index i = 0; i < in; ++i)
        s = std::fma(x[static_cast<std::size_t>(r * in + i)],
                     lin.w.value[static_cast<std::size_t>(o * in + i)], s);
      EXPECT_EQ(y[static_cast<std::size_t>(r * out + o)], s)
          << "y[" << r << "," << o << "]";
    }
}

TEST(Gemm, LinearPoliciesAgree) {
  // The decode path plumbs DecodeState::kernel into Linear: every policy
  // must produce the same activations, bit for bit.
  Rng rng(13);
  const Index in = 64, out = 192, rows = 37;
  Linear lin(in, out, rng, "qkv");
  std::vector<Real> x(static_cast<std::size_t>(rows * in));
  for (auto& v : x) v = rng.normal();
  const auto run = [&](KernelPolicy policy) {
    std::vector<Real> y(static_cast<std::size_t>(rows * out));
    lin.forwardInto(x.data(), rows, y.data(), policy);
    return y;
  };
  const std::vector<Real> ref = run(KernelPolicy::kScalar);
  for (auto policy : {KernelPolicy::kSimd, KernelPolicy::kThreaded, KernelPolicy::kAuto}) {
    const std::vector<Real> got = run(policy);
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], got[i]) << i;
  }
}

TEST(Gemm, MatmulMatchesReferenceLoop) {
  Rng rng(17);
  linalg::Matrix a(23, 37), b(37, 29);
  for (Index i = 0; i < 23; ++i)
    for (Index j = 0; j < 37; ++j) a(i, j) = rng.normal();
  for (Index i = 0; i < 37; ++i)
    for (Index j = 0; j < 29; ++j) b(i, j) = rng.normal();
  const linalg::Matrix c = linalg::matmul(a, b);
  for (Index i = 0; i < 23; ++i)
    for (Index j = 0; j < 29; ++j) {
      Real s = 0;
      for (Index l = 0; l < 37; ++l) s = std::fma(a(i, l), b(l, j), s);
      EXPECT_EQ(c(i, j), s) << i << "," << j;
    }
}

TEST(Gemm, MatmulTNMatchesTransposedMatmulExactly) {
  // Both run the same contract with the same k-order, so they agree to the
  // bit, not just to rounding.
  Rng rng(19);
  linalg::Matrix a(31, 14), b(31, 18);
  for (Index i = 0; i < 31; ++i) {
    for (Index j = 0; j < 14; ++j) a(i, j) = rng.normal();
    for (Index j = 0; j < 18; ++j) b(i, j) = rng.normal();
  }
  const linalg::Matrix c1 = linalg::matmulTN(a, b);
  const linalg::Matrix c2 = linalg::matmul(a.transposed(), b);
  for (Index i = 0; i < 14; ++i)
    for (Index j = 0; j < 18; ++j) EXPECT_EQ(c1(i, j), c2(i, j)) << i << "," << j;
}
