// Elementwise kernel backends (kernels::tanh / gelu / residualLayerNorm and
// their backwards, kernels::adamw): exact (tolerance-0) agreement between the
// scalar reference and the vectorized/threaded backends of every ISA tier the
// host runs on ragged shapes, the
// branch-free kernel tanh's accuracy, and the Tape arena's
// carve/reuse/grow behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/kernel_table.hpp"
#include "nn/modules.hpp"
#include "nn/tape.hpp"
#include "nn/transformer.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nn;
using kernels::KernelPolicy;
using kernels::detail::KernelTable;

namespace {

constexpr KernelPolicy kAllPolicies[] = {KernelPolicy::kScalar, KernelPolicy::kSimd,
                                         KernelPolicy::kThreaded, KernelPolicy::kAuto};

/// Bitwise equality (tolerance 0; also tells -0.0 from +0.0).
void expectBitIdentical(const std::vector<Real>& ref, const std::vector<Real>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[i]), std::bit_cast<std::uint64_t>(got[i]))
        << what << " [" << i << "]: " << ref[i] << " vs " << got[i];
}

/// The label of one tier x policy comparison.
std::string label(const KernelTable& tier, KernelPolicy policy, const char* what) {
  return std::string(tier.name) + " " + kernels::kernelPolicyName(policy) + " " + what;
}

std::vector<Real> randomVec(Rng& rng, std::size_t n, Real scale = 2.0) {
  std::vector<Real> v(n);
  for (auto& x : v) x = scale * rng.normal();
  return v;
}

}  // namespace

TEST(ElementwiseKernels, KernelTanhTracksStdTanh) {
  // The branch-free exp-based tanh must track std::tanh to a few ulp over
  // the GELU input range and saturate exactly at the extremes.
  for (Real u = -25.0; u <= 25.0; u += 0.0137) {
    const Real ref = std::tanh(u);
    EXPECT_NEAR(kernels::kernelTanh(u), ref, 1e-15) << "u = " << u;
  }
  EXPECT_EQ(kernels::kernelTanh(0.0), 0.0);
  EXPECT_EQ(kernels::kernelTanh(400.0), 1.0);    // exp underflow: exact 1
  EXPECT_EQ(kernels::kernelTanh(-400.0), -1.0);
  EXPECT_EQ(kernels::kernelTanh(1e308), 1.0);
  EXPECT_EQ(kernels::kernelTanh(-1e308), -1.0);
}

TEST(ElementwiseKernels, TanhBackendsBitIdenticalOnRaggedSizes) {
  // kernels::tanh is kernelTanh per element under every policy of every ISA
  // tier the host runs, in place too, on sizes straddling the SIMD widths,
  // the chunk and the thread threshold, with the saturating and signed-zero
  // inputs planted in the vector bodies as well as the ragged tails.
  Rng rng(405);
  const Real special[] = {0.0, -0.0, 400.0, -400.0, 1e308, -1e308};
  for (Index n : {Index{1}, Index{3}, Index{7}, Index{9}, Index{33}, Index{255},
                  Index{4099}, Index{1} << 15}) {
    auto x = randomVec(rng, static_cast<std::size_t>(n), 4.0);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = i % 5 == 0 ? special[i % 6] : x[i];
    std::vector<Real> ref(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) ref[i] = kernels::kernelTanh(x[i]);
    for (const KernelTable* tier : kernels::detail::hostTiers())
      for (auto policy : kAllPolicies) {
        std::vector<Real> y(x.size());
        kernels::detail::tanh(x.data(), y.data(), n, policy, *tier);
        expectBitIdentical(ref, y, label(*tier, policy, "tanh"));
        std::vector<Real> inplace = x;
        kernels::detail::tanh(inplace.data(), inplace.data(), n, policy, *tier);
        expectBitIdentical(ref, inplace, label(*tier, policy, "tanh in-place"));
        for (std::size_t i = 0; i < x.size(); ++i) {  // +-0 keep their sign
          if (x[i] == 0.0) {
            EXPECT_EQ(std::signbit(y[i]), std::signbit(x[i]));
          }
        }
      }
  }
  const Real in[] = {0.0, -0.0, 400.0, -400.0, 1e308, -1e308};
  const Real want[] = {0.0, -0.0, 1.0, -1.0, 1.0, -1.0};
  for (const KernelTable* tier : kernels::detail::hostTiers())
    for (auto policy : kAllPolicies) {
      Real out[6];
      kernels::detail::tanh(in, out, 6, policy, *tier);
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(out[i], want[i]) << label(*tier, policy, "x = ") << in[i];
        EXPECT_EQ(std::signbit(out[i]), std::signbit(want[i]))
            << label(*tier, policy, "x = ") << in[i];
      }
    }
}

TEST(ElementwiseKernels, GeluKnownValuesAndGradient) {
  EXPECT_EQ(kernels::geluScalar(0.0), 0.0);
  EXPECT_NEAR(kernels::geluScalar(100.0), 100.0, 1e-6);
  EXPECT_NEAR(kernels::geluScalar(-100.0), 0.0, 1e-6);
  // Central finite difference of the scalar reference.
  for (Real v : {-3.0, -0.7, 0.0, 0.3, 1.9, 4.0}) {
    const Real eps = 1e-6;
    const Real num =
        (kernels::geluScalar(v + eps) - kernels::geluScalar(v - eps)) / (2 * eps);
    EXPECT_NEAR(kernels::geluGradScalar(v), num, 1e-7) << "v = " << v;
  }
}

TEST(ElementwiseKernels, GeluBackendsBitIdenticalOnRaggedSizes) {
  Rng rng(404);
  // Sizes straddling the SIMD widths, the chunk size, and the thread
  // threshold; nothing a multiple of 8 except the big one.
  for (Index n : {Index{1}, Index{3}, Index{7}, Index{33}, Index{255},
                  Index{4099}, Index{1} << 15}) {
    const auto x = randomVec(rng, static_cast<std::size_t>(n));
    const auto dy = randomVec(rng, static_cast<std::size_t>(n));
    std::vector<Real> ref(x.size()), refDx(x.size());
    kernels::gelu(x.data(), ref.data(), n, KernelPolicy::kScalar);
    kernels::geluBackward(x.data(), dy.data(), refDx.data(), n, KernelPolicy::kScalar);
    for (const KernelTable* tier : kernels::detail::hostTiers())
      for (auto policy : kAllPolicies) {
        std::vector<Real> y(x.size()), dx(x.size());
        kernels::detail::gelu(x.data(), y.data(), n, policy, *tier);
        kernels::detail::geluBackward(x.data(), dy.data(), dx.data(), n, policy, *tier);
        expectBitIdentical(ref, y, label(*tier, policy, "gelu fwd"));
        expectBitIdentical(refDx, dx, label(*tier, policy, "gelu bwd"));
        // In-place aliasing (the decode path runs GELU in place on the ff
        // activations) must give the same bits.
        std::vector<Real> inplace = x;
        kernels::detail::gelu(inplace.data(), inplace.data(), n, policy, *tier);
        expectBitIdentical(ref, inplace, label(*tier, policy, "gelu in-place"));
      }
  }
}

namespace {

/// One randomized fused residual+LN problem; returns (y, h, xhat, invStd).
struct LnRun {
  std::vector<Real> y, h, xhat, invStd;
};

LnRun runLn(const std::vector<Real>& x, const std::vector<Real>* res, Index rows,
            Index dim, const std::vector<Real>& gamma, const std::vector<Real>& beta,
            KernelPolicy policy, bool caches,
            const KernelTable& tier = kernels::detail::hostKernels()) {
  LnRun out;
  out.y.resize(x.size());
  kernels::ResidualLnArgs a;
  a.rows = rows;
  a.dim = dim;
  a.x = x.data();
  a.gamma = gamma.data();
  a.beta = beta.data();
  a.y = out.y.data();
  if (res != nullptr) {
    out.h.resize(x.size());
    a.res = res->data();
    a.h = out.h.data();
  }
  if (caches) {
    out.xhat.resize(x.size());
    out.invStd.resize(static_cast<std::size_t>(rows));
    a.xhat = out.xhat.data();
    a.invStd = out.invStd.data();
  }
  kernels::detail::residualLayerNorm(a, policy, tier);
  return out;
}

}  // namespace

TEST(ElementwiseKernels, ResidualLayerNormBackendsBitIdentical) {
  Rng rng(405);
  struct Shape {
    Index rows, dim;
  };
  // Ragged dims straddling the 8-lane blocks and odd row counts.
  const Shape shapes[] = {{1, 1}, {3, 5}, {2, 8}, {5, 17}, {33, 64}, {7, 100}, {64, 256}};
  for (const auto& s : shapes) {
    const auto n = static_cast<std::size_t>(s.rows * s.dim);
    const auto x = randomVec(rng, n);
    const auto res = randomVec(rng, n);
    auto gamma = randomVec(rng, static_cast<std::size_t>(s.dim), 0.5);
    for (auto& g : gamma) g += 1.0;
    const auto beta = randomVec(rng, static_cast<std::size_t>(s.dim), 0.3);
    for (bool withRes : {false, true}) {
      const auto ref = runLn(x, withRes ? &res : nullptr, s.rows, s.dim, gamma,
                             beta, KernelPolicy::kScalar, true);
      // The fused h output must be exactly the elementwise sum.
      if (withRes)
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(ref.h[i], x[i] + res[i]) << i;
      for (const KernelTable* tier : kernels::detail::hostTiers())
        for (auto policy : kAllPolicies) {
          const auto got = runLn(x, withRes ? &res : nullptr, s.rows, s.dim, gamma,
                                 beta, policy, true, *tier);
          expectBitIdentical(ref.y, got.y, label(*tier, policy, "ln y"));
          expectBitIdentical(ref.xhat, got.xhat, label(*tier, policy, "ln xhat"));
          expectBitIdentical(ref.invStd, got.invStd, label(*tier, policy, "ln invStd"));
          if (withRes) expectBitIdentical(ref.h, got.h, label(*tier, policy, "ln h"));
          // Cache-less variant (the decode path) must produce the same y.
          const auto noCache = runLn(x, withRes ? &res : nullptr, s.rows, s.dim,
                                     gamma, beta, policy, false, *tier);
          expectBitIdentical(ref.y, noCache.y, label(*tier, policy, "ln y (no caches)"));
        }
    }
  }
}

TEST(ElementwiseKernels, LayerNormBackwardBackendsBitIdentical) {
  Rng rng(406);
  struct Shape {
    Index rows, dim;
  };
  const Shape shapes[] = {{1, 1}, {3, 5}, {5, 17}, {33, 64}, {7, 100}};
  for (const auto& s : shapes) {
    const auto n = static_cast<std::size_t>(s.rows * s.dim);
    const auto x = randomVec(rng, n);
    const auto dy = randomVec(rng, n);
    auto gamma = randomVec(rng, static_cast<std::size_t>(s.dim), 0.5);
    for (auto& g : gamma) g += 1.0;
    const auto beta = randomVec(rng, static_cast<std::size_t>(s.dim), 0.3);
    const auto fwd = runLn(x, nullptr, s.rows, s.dim, gamma, beta,
                           KernelPolicy::kScalar, true);
    auto run = [&](KernelPolicy policy, const KernelTable& tier) {
      struct {
        std::vector<Real> dx, dgamma, dbeta;
      } out;
      out.dx.resize(n);
      // Non-zero accumulators: backward *accumulates* param grads.
      out.dgamma.assign(static_cast<std::size_t>(s.dim), 0.25);
      out.dbeta.assign(static_cast<std::size_t>(s.dim), -0.5);
      kernels::LayerNormBwdArgs a;
      a.rows = s.rows;
      a.dim = s.dim;
      a.dy = dy.data();
      a.xhat = fwd.xhat.data();
      a.invStd = fwd.invStd.data();
      a.gamma = gamma.data();
      a.dgamma = out.dgamma.data();
      a.dbeta = out.dbeta.data();
      a.dx = out.dx.data();
      kernels::detail::layerNormBackward(a, policy, tier);
      return out;
    };
    const auto ref = run(KernelPolicy::kScalar, kernels::detail::scalarKernels());
    for (const KernelTable* tier : kernels::detail::hostTiers())
      for (auto policy : kAllPolicies) {
        const auto got = run(policy, *tier);
        expectBitIdentical(ref.dx, got.dx, label(*tier, policy, "ln dx"));
        expectBitIdentical(ref.dgamma, got.dgamma, label(*tier, policy, "ln dgamma"));
        expectBitIdentical(ref.dbeta, got.dbeta, label(*tier, policy, "ln dbeta"));
      }
  }
}

TEST(ElementwiseKernels, ModulesRunOnTheKernels) {
  // LayerNorm's tape forward and its fused-residual decode forward must
  // produce exactly the scalar kernel sequences — that is what keeps the
  // tape and KV-decode activations bit-identical.
  Rng rng(407);
  const std::vector<Real> xv = randomVec(rng, 3 * 7, 2.0);
  Tape tape;
  LayerNorm ln(7, "t");
  LayerNorm::TapeFrame lf;
  const Real* ly = ln.forwardTape(tape, lf, xv.data(), 3);
  const std::vector<Real> gamma(ln.gamma.value, ln.gamma.value + 7);
  const std::vector<Real> beta(ln.beta.value, ln.beta.value + 7);
  const auto ref = runLn(xv, nullptr, 3, 7, gamma, beta, KernelPolicy::kScalar, false);
  for (std::size_t i = 0; i < ref.y.size(); ++i) EXPECT_EQ(ly[i], ref.y[i]);

  const auto res = randomVec(rng, xv.size());
  const auto refRes = runLn(xv, &res, 3, 7, gamma, beta, KernelPolicy::kScalar, false);
  std::vector<Real> y(xv.size()), h(xv.size());
  ln.forwardInto(xv.data(), res.data(), h.data(), 3, y.data(), KernelPolicy::kSimd);
  expectBitIdentical(refRes.y, y, "forwardInto y");
  expectBitIdentical(refRes.h, h, "forwardInto h");
}

TEST(ElementwiseKernels, TanhPathsAgreeBitForBit) {
  // PhaseMlp::forwardTape runs kernels::tanh in place on each hidden
  // Linear's tape output.  Its phases must be the same bits under every
  // policy, and equal a plain loop of Linear::forwardInto plus kernelTanh
  // per element over the same weights.
  Rng rng(409);
  PhaseMlp mlp(6, 16, 2, rng);
  std::vector<Parameter*> params;
  mlp.collectParameters(params);
  ASSERT_EQ(params.size(), 6u);  // (w, b) of l0, l1 and out
  const Index rows = 37;
  const std::vector<Real> xin = randomVec(rng, static_cast<std::size_t>(rows * 6), 3.0);

  std::vector<Real> ref = xin;
  for (std::size_t l = 0; l < 3; ++l) {
    const Parameter& w = *params[2 * l];
    Linear lin(w.shape[1], w.shape[0], rng, "ref");
    std::copy_n(w.value, w.numel(), lin.w.value);
    std::copy_n(params[2 * l + 1]->value, w.shape[0], lin.b.value);
    std::vector<Real> y(static_cast<std::size_t>(rows * w.shape[0]));
    lin.forwardInto(ref.data(), rows, y.data(), KernelPolicy::kScalar);
    if (l < 2)
      for (Real& v : y) v = kernels::kernelTanh(v);
    ref = std::move(y);
  }

  for (KernelPolicy policy :
       {KernelPolicy::kScalar, KernelPolicy::kSimd, KernelPolicy::kAuto}) {
    Tape tape;
    PhaseMlp::TapeFrame f;
    const Real* ph = mlp.forwardTape(tape, f, xin.data(), rows, policy);
    expectBitIdentical(ref, std::vector<Real>(ph, ph + rows),
                       std::string(kernels::kernelPolicyName(policy)) + " phases");
  }
}

TEST(ElementwiseKernels, AdamWBackendsBitIdenticalOverSteps) {
  // kernels::adamw is the plain AdamW loop (oracle::adamwStep) bit for bit
  // under every policy of every tier, over three successive steps (moments
  // carried), on lengths straddling the SIMD widths, the chunk and the
  // thread threshold; it leaves every gradient +0.0.
  nn::AdamWOptions o;
  o.lr = 3e-3;
  o.weightDecay = 1e-2;
  constexpr KernelPolicy kPolicies[] = {KernelPolicy::kScalar, KernelPolicy::kSimd,
                                        KernelPolicy::kThreaded};
  for (Index n : {Index{0}, Index{1}, Index{7}, Index{8}, Index{9}, Index{17},
                  Index{4097}, Index{100003}}) {
    const auto len = static_cast<std::size_t>(n);
    Rng rng(407 + static_cast<std::uint64_t>(n));
    const auto w0 = randomVec(rng, len, 0.1);
    std::vector<std::vector<Real>> grads;
    for (int t = 0; t < 3; ++t) {
      auto g = randomVec(rng, len, 1e-2);
      for (std::size_t i = 0; i < len; i += 5) g[i] = i % 10 == 0 ? 0.0 : -0.0;
      grads.push_back(std::move(g));
    }
    for (const KernelTable* tier : kernels::detail::hostTiers())
      for (auto policy : kPolicies) {
        std::vector<Real> w = w0, m(len), v(len), rw = w0, rm(len), rv(len);
        for (int t = 1; t <= 3; ++t) {
          std::vector<Real> g = grads[static_cast<std::size_t>(t - 1)];
          std::vector<Real> rg = g;
          const Real lr = o.lr * (0.5 + t);
          oracle::adamwStep(o, lr, t, len, rw.data(), rg.data(), rm.data(), rv.data());
          kernels::AdamWArgs a;
          a.n = n;
          a.value = w.data();
          a.grad = g.data();
          a.m = m.data();
          a.v = v.data();
          a.lr = lr;
          a.beta1 = o.beta1;
          a.beta2 = o.beta2;
          a.eps = o.eps;
          a.weightDecay = o.weightDecay;
          a.bc1 = 1.0 - std::pow(o.beta1, static_cast<Real>(t));
          a.bc2 = 1.0 - std::pow(o.beta2, static_cast<Real>(t));
          kernels::detail::adamw(a, policy, *tier);
          const std::string step = " step " + std::to_string(t) + " n " + std::to_string(n);
          expectBitIdentical(rw, w, label(*tier, policy, "adamw w") + step);
          expectBitIdentical(rm, m, label(*tier, policy, "adamw m") + step);
          expectBitIdentical(rv, v, label(*tier, policy, "adamw v") + step);
          expectBitIdentical(std::vector<Real>(len, 0.0), g,
                             label(*tier, policy, "adamw grad") + step);
        }
      }
  }
}

// ------------------------------------------------------------------ Tape ---

TEST(Tape, CarvesAlignedDisjointSpans) {
  Tape tape;
  tape.reset();
  Real* a = tape.alloc(13);
  Real* b = tape.alloc(64);
  Real* c = tape.alloc(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_GE(b, a + 13);  // disjoint
  EXPECT_GE(c, b + 64);
  // Spans are writable end to end.
  for (Index i = 0; i < 13; ++i) a[i] = 1.0;
  for (Index i = 0; i < 64; ++i) b[i] = 2.0;
  c[0] = 3.0;
}

TEST(Tape, SteadyStateReusesOneBlockWithoutGrowth) {
  Tape tape;
  // Cycle 1 at the working-set size: grows (possibly overflowing).
  tape.reset();
  for (int i = 0; i < 10; ++i) tape.alloc(1000);
  tape.reset();  // coalesce
  const auto grows = tape.stats().grows;
  const auto capacity = tape.stats().capacity;
  EXPECT_GE(tape.stats().highWater, std::size_t{10 * 1000});
  EXPECT_GE(capacity, tape.stats().highWater);
  // Steady state: same-shaped cycles never allocate or grow again, and the
  // primary block stays put.
  Real* first = nullptr;
  for (int cycle = 0; cycle < 5; ++cycle) {
    Real* p = tape.alloc(1000);
    if (first == nullptr) first = p;
    EXPECT_EQ(p, first) << "primary block moved between cycles";
    for (int i = 0; i < 9; ++i) tape.alloc(1000);
    tape.reset();
    EXPECT_EQ(tape.stats().grows, grows) << "steady-state cycle grew";
    EXPECT_EQ(tape.stats().capacity, capacity);
  }
}

TEST(Tape, MidCycleOverflowPreservesLiveSpansThenCoalesces) {
  Tape tape;
  tape.reset();
  tape.reserve(64);
  Real* a = tape.alloc(64);
  for (Index i = 0; i < 64; ++i) a[i] = static_cast<Real>(i);
  // Overflows the reserved block: must come from a side chunk, leaving the
  // live span `a` intact.
  Real* b = tape.alloc(1 << 16);
  ASSERT_NE(b, nullptr);
  EXPECT_GE(tape.stats().overflows, 1);
  b[0] = -1.0;
  b[(1 << 16) - 1] = -2.0;
  for (Index i = 0; i < 64; ++i)
    ASSERT_EQ(a[i], static_cast<Real>(i)) << "overflow clobbered a live span";
  // The next reset coalesces: one block big enough for the whole cycle.
  tape.reset();
  EXPECT_GE(tape.stats().capacity, tape.stats().highWater);
  const auto overflowsBefore = tape.stats().overflows;
  tape.alloc(64);
  tape.alloc(1 << 16);
  EXPECT_EQ(tape.stats().overflows, overflowsBefore) << "coalesced cycle overflowed";
}

TEST(Tape, ColdCarvesFillOneSideChunk) {
  // A cold arena overflows into side chunks.  HugeBuffer commits whole 2 MiB
  // pages whatever size it is asked for, so the first chunk must take those
  // pages and serve the cycle's later carves, not open (and commit) a chunk
  // every few carves: 100 carves of 1,000 Reals are 0.76 MiB.
  Tape tape;
  tape.reset();
  for (int i = 0; i < 100; ++i) tape.alloc(1000);
  EXPECT_LE(tape.stats().overflows, 1);
}

TEST(Tape, ReserveAvoidsOverflowChunks) {
  Tape tape;
  tape.reset();
  tape.reserve(4096);
  for (int i = 0; i < 4; ++i) tape.alloc(1024);
  EXPECT_EQ(tape.stats().overflows, 0);
  EXPECT_GE(tape.stats().capacity, std::size_t{4096});
}
