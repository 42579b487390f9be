#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/transformer.hpp"
#include "nqs/ansatz.hpp"

using namespace nnqs;
using namespace nnqs::nn;

namespace {

/// Central finite difference of a scalar function of a parameter entry.
Real numericalGrad(const std::function<Real()>& f, Real& param, Real eps = 1e-5) {
  const Real orig = param;
  param = orig + eps;
  const Real fp = f();
  param = orig - eps;
  const Real fm = f();
  param = orig;
  return (fp - fm) / (2 * eps);
}

/// n Gaussian values of the given std-dev.
std::vector<Real> randn(Rng& rng, Index n, Real stddev) {
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = stddev * rng.normal();
  return v;
}

/// Weighted sum of w.size() outputs: the scalar loss the module checks below
/// take finite differences of.
Real weightedSum(const Real* y, const std::vector<Real>& w) {
  Real s = 0;
  for (std::size_t i = 0; i < w.size(); ++i) s += w[i] * y[i];
  return s;
}

/// Scalar loss = sum(weights * output) for a module applied to fixed input;
/// `backwardSeed` fills the analytic gradients (a forwardTape + backwardTape
/// pass seeded with the weights, or evaluateGrad).
template <typename Fwd>
void gradcheckParams(std::vector<Parameter*> params, const Fwd& forwardLoss,
                     const std::function<void()>& backwardSeed, Real tol,
                     int samplesPerParam = 3) {
  for (Parameter* p : params) std::fill_n(p->grad, p->numel(), 0.0);
  backwardSeed();
  Rng rng(123);
  for (Parameter* p : params) {
    const auto n = static_cast<std::size_t>(p->numel());
    for (int s = 0; s < samplesPerParam; ++s) {
      const std::size_t i = rng.below(n);
      const Real analytic = p->grad[i];
      const Real numeric = numericalGrad(forwardLoss, p->value[i]);
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0, std::abs(numeric)))
          << p->name << "[" << i << "]";
    }
  }
}

}  // namespace

TEST(GradCheck, Linear) {
  Rng rng(7);
  Linear lin(5, 3, rng, "lin");
  const std::vector<Real> x = randn(rng, 2 * 5, 1.0);
  const std::vector<Real> w = randn(rng, 2 * 3, 1.0);
  auto loss = [&] {
    Real y[6];
    lin.forwardInto(x.data(), 2, y, kernels::KernelPolicy::kAuto);
    return weightedSum(y, w);
  };
  std::vector<Parameter*> params;
  lin.collectParameters(params);
  gradcheckParams(params, loss, [&] {
    Tape tape;
    Linear::TapeFrame f;
    lin.forwardTape(tape, f, x.data(), 2);
    lin.backwardTape(tape, f, w.data());
  }, 1e-6, 6);
}

TEST(GradCheck, LayerNorm) {
  Rng rng(8);
  LayerNorm ln(6, "ln");
  for (Index i = 0; i < ln.gamma.numel(); ++i) ln.gamma.value[i] = 0.3 * rng.normal() + 1.0;
  const std::vector<Real> x = randn(rng, 3 * 6, 2.0);
  const std::vector<Real> w = randn(rng, 3 * 6, 1.0);
  auto loss = [&] {
    Tape tape;
    LayerNorm::TapeFrame f;
    return weightedSum(ln.forwardTape(tape, f, x.data(), 3), w);
  };
  std::vector<Parameter*> params;
  ln.collectParameters(params);
  gradcheckParams(params, loss, [&] {
    Tape tape;
    LayerNorm::TapeFrame f;
    ln.forwardTape(tape, f, x.data(), 3);
    ln.backwardTape(tape, f, w.data());
  }, 1e-5, 4);
}

TEST(GradCheck, AttentionAndDecoderStack) {
  Rng rng(9);
  TransformerAR net(4, 8, 2, 2, rng);
  const std::vector<int> tokens = {4, 1, 3, 0, 4, 2, 0, 1};  // batch of 2
  const std::vector<Real> w = randn(rng, 2 * 4 * 4, 1.0);
  auto loss = [&] {
    Tape tape;
    TransformerAR::TapeFrame f;
    return weightedSum(net.forwardTape(tape, f, tokens.data(), 2 * 4, 4), w);
  };
  std::vector<Parameter*> params;
  net.collectParameters(params);
  gradcheckParams(params, loss, [&] {
    Tape tape;
    TransformerAR::TapeFrame f;
    net.forwardTape(tape, f, tokens.data(), 2 * 4, 4);
    net.backwardTape(tape, f, w.data());
  }, 2e-5, 2);
}

TEST(GradCheck, PhaseMlp) {
  Rng rng(10);
  PhaseMlp mlp(6, 16, 2, rng);
  const std::vector<Real> x = randn(rng, 3 * 6, 1.0);
  const std::vector<Real> w = randn(rng, 3 * 1, 1.0);
  auto loss = [&] {
    Tape tape;
    PhaseMlp::TapeFrame f;
    return weightedSum(mlp.forwardTape(tape, f, x.data(), 3), w);
  };
  std::vector<Parameter*> params;
  mlp.collectParameters(params);
  gradcheckParams(params, loss, [&] {
    Tape tape;
    PhaseMlp::TapeFrame f;
    mlp.forwardTape(tape, f, x.data(), 3);
    mlp.backwardTape(tape, f, w.data());
  }, 1e-6, 3);
}

TEST(GradCheck, QiankunNetVmcLoss) {
  // End-to-end: L = sum_i [cA_i ln|Psi(x_i)| + cP_i phi(x_i)] — exactly the
  // seed structure of the VMC gradient (Eq. 7) — with the analytic gradients
  // from evaluateGrad on one tape tile spanning the batch.
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 8;
  cfg.nAlpha = 2;
  cfg.nBeta = 2;
  cfg.dModel = 8;
  cfg.nHeads = 2;
  cfg.nDecoders = 1;
  cfg.phaseHidden = 12;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 77;
  nqs::QiankunNet net(cfg);
  exec::ExecutionPolicy ex;
  ex.gradTileRows = -1;
  net.setEvalPolicy(ex);
  const std::vector<Bits128> samples = {fromBitString("00001111"),
                                        fromBitString("00111100"),
                                        fromBitString("11000011")};
  const std::vector<Real> cA = {0.7, -1.1, 0.4}, cP = {0.2, 0.9, -0.5};
  auto loss = [&] {
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph);
    Real s = 0;
    for (std::size_t i = 0; i < samples.size(); ++i)
      s += cA[i] * la[i] + cP[i] * ph[i];
    return s;
  };
  gradcheckParams(net.parameters(), loss, [&] {
    net.evaluateGrad(samples, cA, cP);
  }, 5e-5, 2);
}

TEST(GradCheck, QiankunNetVmcLossTiledRecompute) {
  // The same VMC loss, but the analytic gradients come from the
  // recompute-in-tiles training step (evaluateGrad, tile of 2 on batch 3 —
  // a ragged last tile), checked against finite differences of the
  // inference evaluate: the tiled path must describe the same function.
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 8;
  cfg.nAlpha = 2;
  cfg.nBeta = 2;
  cfg.dModel = 8;
  cfg.nHeads = 2;
  cfg.nDecoders = 1;
  cfg.phaseHidden = 12;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 77;
  nqs::QiankunNet net(cfg);
  exec::ExecutionPolicy ex;
  ex.gradTileRows = 2;
  net.setEvalPolicy(ex);
  const std::vector<Bits128> samples = {fromBitString("00001111"),
                                        fromBitString("00111100"),
                                        fromBitString("11000011")};
  const std::vector<Real> cA = {0.7, -1.1, 0.4}, cP = {0.2, 0.9, -0.5};
  auto loss = [&] {
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph);
    Real s = 0;
    for (std::size_t i = 0; i < samples.size(); ++i)
      s += cA[i] * la[i] + cP[i] * ph[i];
    return s;
  };
  gradcheckParams(net.parameters(), loss, [&] {
    net.evaluateGrad(samples, cA, cP);
  }, 5e-5, 2);
}
