#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "io/checkpoint.hpp"
#include "nqs/ansatz.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {
QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta,
                             std::uint64_t seed = 11) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

/// All bitstrings of n qubits with exactly na up and nb down electrons
/// (up = even qubits, down = odd).
std::vector<Bits128> numberSector(int n, int na, int nb) {
  std::vector<Bits128> out;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits128 b{v, 0};
    int up = 0, down = 0;
    for (int q = 0; q < n; q += 2) up += b.get(q);
    for (int q = 1; q < n; q += 2) down += b.get(q);
    if (up == na && down == nb) out.push_back(b);
  }
  return out;
}
}  // namespace

TEST(Ansatz, RejectsQubitCountsTheEngineCannotRepresent) {
  // One Bits128 holds a configuration, and sampling runs over orbital
  // pairs: above 128 qubits Bits128::set(128) would write qubit 64 and
  // get(128) shift a word by 64.  128 itself is the largest valid count.
  for (const int n : {130, 256, 0, -2, 7}) {
    EXPECT_THROW(QiankunNet{smallConfig(n, 0, 0)}, std::invalid_argument) << n;
  }
  EXPECT_NO_THROW(QiankunNet{smallConfig(128, 1, 1)});
}

TEST(Ansatz, RejectsElectronCountsOutsideTheOrbitals) {
  // More electrons of a spin than spatial orbitals mask every outcome of
  // the first step, so the masked softmax would divide 0 by 0.
  EXPECT_THROW(QiankunNet{smallConfig(8, 5, 2)}, std::invalid_argument);
  EXPECT_THROW(QiankunNet{smallConfig(8, 2, 5)}, std::invalid_argument);
  EXPECT_THROW(QiankunNet{smallConfig(8, -1, 2)}, std::invalid_argument);
  EXPECT_NO_THROW(QiankunNet{smallConfig(8, 4, 0)});
}

namespace {
/// `cfg` must be refused naming `field`: by unrepresentableField and, unless
/// `construct` is false (a cap, whose net would not fit in memory if the
/// check were missing), by the constructor.
void expectRefused(const QiankunNetConfig& cfg, const char* field, bool construct = true) {
  const char* got = unrepresentableField(cfg);
  EXPECT_STREQ(got == nullptr ? "(none)" : got, field);
  if (construct) {
    EXPECT_THROW(QiankunNet{cfg}, std::invalid_argument) << field;
  }
}
}  // namespace

TEST(Ansatz, RejectsDModelOutsideItsRange) {
  // dModel 0 would build empty weights, and a negative one negative sizes.
  QiankunNetConfig cfg = smallConfig(8, 2, 2);
  for (const Index d : {Index{0}, Index{-16}}) {
    cfg.dModel = d;
    expectRefused(cfg, "dModel");
  }
  cfg.dModel = (Index{1} << 12) + 4;
  expectRefused(cfg, "dModel", false);
  cfg.dModel = Index{1} << 12;
  EXPECT_EQ(unrepresentableField(cfg), nullptr);
}

TEST(Ansatz, RejectsHeadCountsThatDoNotDivideDModel) {
  // nHeads 0 would reach the attention's dModel / nHeads (SIGFPE), and -4
  // give a negative head width.
  QiankunNetConfig cfg = smallConfig(8, 2, 2);
  for (const Index h : {Index{0}, Index{-4}, Index{3}}) {
    cfg.nHeads = h;
    expectRefused(cfg, "nHeads");
  }
}

TEST(Ansatz, RejectsDecoderCountsOutsideTheirRange) {
  QiankunNetConfig cfg = smallConfig(8, 2, 2);
  cfg.nDecoders = -1;
  expectRefused(cfg, "nDecoders");
  cfg.nDecoders = (Index{1} << 10) + 1;
  expectRefused(cfg, "nDecoders", false);
  cfg.nDecoders = 0;  // the embedding feeds the head directly
  EXPECT_NO_THROW(QiankunNet{cfg});
}

TEST(Ansatz, RejectsPhaseWidthsOutsideTheirRange) {
  // phaseHidden 0 would build hidden layers with no units.
  QiankunNetConfig cfg = smallConfig(8, 2, 2);
  for (const Index h : {Index{0}, Index{-1}}) {
    cfg.phaseHidden = h;
    expectRefused(cfg, "phaseHidden");
  }
  cfg.phaseHidden = (Index{1} << 14) + 1;
  expectRefused(cfg, "phaseHidden", false);
}

TEST(Ansatz, RejectsPhaseLayerCountsOutsideTheirRange) {
  QiankunNetConfig cfg = smallConfig(8, 2, 2);
  cfg.phaseHiddenLayers = -1;
  expectRefused(cfg, "phaseHiddenLayers");
  cfg.phaseHiddenLayers = (Index{1} << 10) + 1;
  expectRefused(cfg, "phaseHiddenLayers", false);
  cfg.phaseHiddenLayers = 0;  // a linear phase
  EXPECT_NO_THROW(QiankunNet{cfg});
}

TEST(Ansatz, ParametersAreSlicesOfOneFlatStore) {
  // Parameter k is the slice at the running offset of one value buffer and
  // one gradient buffer, and gradients() spans exactly the parameter count:
  // what Stage 6 allreduces in place and AdamW steps in one call.
  QiankunNet net(smallConfig(8, 2, 2));
  const auto& params = net.parameters();
  const std::span<Real> grads = net.gradients();
  ASSERT_EQ(static_cast<Index>(grads.size()), net.parameterCount());
  Index off = 0;
  for (const nn::Parameter* p : params) {
    EXPECT_EQ(p->value, params.front()->value + off) << p->name;
    EXPECT_EQ(p->grad, grads.data() + off) << p->name;
    off += p->numel();
  }
  EXPECT_EQ(off, net.parameterCount());
}

// The parameters point into the net's own buffers, so a copy would alias them.
static_assert(!std::is_copy_constructible_v<QiankunNet>);
static_assert(!std::is_copy_assignable_v<QiankunNet>);

TEST(Ansatz, TokenMappingRoundTrip) {
  QiankunNet net(smallConfig(8, 2, 2));
  const Bits128 x = fromBitString("10011100");
  Bits128 rebuilt;
  for (int s = 0; s < net.nSteps(); ++s)
    rebuilt = net.applyToken(rebuilt, s, net.tokenOf(x, s));
  EXPECT_EQ(rebuilt, x);
}

TEST(Ansatz, SamplesInReverseOrbitalOrder) {
  QiankunNet net(smallConfig(8, 2, 2));
  EXPECT_EQ(net.orbitalOfStep(0), 3);  // highest orbital first (paper §3.3)
  EXPECT_EQ(net.orbitalOfStep(3), 0);
}

TEST(Ansatz, ProbabilityNormalizedOverNumberSector) {
  // Autoregressive + feasibility masking => sum over the (na, nb) sector of
  // |Psi|^2 is exactly 1; everything outside the sector has zero amplitude.
  const int n = 8, na = 2, nb = 1;
  QiankunNet net(smallConfig(n, na, nb));
  const auto sector = numberSector(n, na, nb);
  std::vector<Real> la, ph;
  net.evaluate(sector, la, ph);
  Real norm = 0;
  for (Real v : la) norm += std::exp(2.0 * v);
  EXPECT_NEAR(norm, 1.0, 1e-10);

  // A wrong-sector state has zero amplitude.
  const auto wrong = numberSector(n, na + 1, nb);
  net.evaluate({wrong[0]}, la, ph);
  EXPECT_LT(la[0], -1e20);
}

TEST(Ansatz, MaskEnforcesBounds) {
  QiankunNet net(smallConfig(8, 1, 1));
  // After using the only up electron, up outcomes are forbidden.
  const auto mask = net.outcomeMask(/*s=*/1, /*nUp=*/1, /*nDown=*/0);
  EXPECT_FALSE(mask[1]);  // up
  EXPECT_FALSE(mask[3]);  // up+down
  EXPECT_TRUE(mask[2]);   // down only
  // Early steps must keep feasibility: with 4 steps, 1 up needed, step 0
  // cannot exclude everything.
  const auto m0 = net.outcomeMask(0, 0, 0);
  EXPECT_TRUE(m0[0] || m0[1] || m0[2] || m0[3]);
}

TEST(Ansatz, MaskForcesFillingAtTheEnd) {
  // 2 steps left, 2 up + 2 down still needed -> only outcome 3 (both) valid.
  QiankunNet net(smallConfig(8, 2, 2));
  const auto mask = net.outcomeMask(/*s=*/2, /*nUp=*/0, /*nDown=*/0);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_TRUE(mask[3]);
}

TEST(Ansatz, ConditionalsMatchEvaluate) {
  // Chain rule: product of the oracle's full-forward conditionals of a
  // sample's tokens equals exp(2 ln|Psi|) of the decode-path evaluate.
  // Halving and doubling are exact, so the sums agree bit for bit.
  const int n = 8, na = 2, nb = 2;
  QiankunNet net(smallConfig(n, na, nb));
  const Bits128 x = numberSector(n, na, nb)[5];
  std::vector<Real> la, ph;
  net.evaluate({x}, la, ph);

  Real logProb = 0;
  std::vector<int> prefix;
  std::array<int, 2> counts{0, 0};
  for (int s = 0; s < net.nSteps(); ++s) {
    const auto probs = oracle::conditionals(net, prefix, 1, s, {counts});
    const int t = net.tokenOf(x, s);
    logProb += std::log(probs[static_cast<std::size_t>(t)]);
    prefix.push_back(t);
    counts[0] += t & 1;
    counts[1] += (t >> 1) & 1;
  }
  EXPECT_EQ(logProb, 2.0 * la[0]);
}

TEST(Ansatz, ParameterCountMatchesPaperScale) {
  // Paper §3.2: C2 (N=20) with the default architecture has M ~ 2.7e5.
  QiankunNetConfig cfg = smallConfig(20, 6, 6);
  cfg.phaseHidden = 512;
  QiankunNet net(cfg);
  EXPECT_GT(net.parameterCount(), 250000);
  EXPECT_LT(net.parameterCount(), 310000);
}

TEST(Ansatz, ParameterCountOfAConfigMatchesTheBuiltNet) {
  // nqs::parameterCount(cfg) sizes a net without building it, so it must
  // count exactly what the constructor packs, for every module shape.
  std::vector<QiankunNetConfig> cfgs{smallConfig(8, 2, 2), smallConfig(20, 6, 6)};
  cfgs[1].phaseHidden = 512;
  QiankunNetConfig c = smallConfig(12, 3, 2);
  c.dModel = 8;
  c.nHeads = 2;
  c.nDecoders = 3;
  c.phaseHidden = 7;
  c.phaseHiddenLayers = 1;
  cfgs.push_back(c);
  c.nDecoders = 0;
  c.phaseHiddenLayers = 0;
  cfgs.push_back(c);
  c.nQubits = 2;
  c.nAlpha = 1;
  c.nBeta = 0;
  c.dModel = 1;
  c.nHeads = 1;
  c.nDecoders = 1;
  c.phaseHidden = 1;
  c.phaseHiddenLayers = 3;
  cfgs.push_back(c);
  for (const QiankunNetConfig& cfg : cfgs) {
    QiankunNet net(cfg);
    EXPECT_EQ(parameterCount(cfg), net.parameterCount())
        << "nQubits " << cfg.nQubits << " dModel " << cfg.dModel << " nDecoders "
        << cfg.nDecoders << " phaseHidden " << cfg.phaseHidden << " phaseHiddenLayers "
        << cfg.phaseHiddenLayers;
  }
}

TEST(Ansatz, DeterministicAcrossInstancesWithSameSeed) {
  QiankunNet a(smallConfig(8, 2, 2, 99)), b(smallConfig(8, 2, 2, 99));
  const auto sector = numberSector(8, 2, 2);
  std::vector<Real> la1, ph1, la2, ph2;
  a.evaluate(sector, la1, ph1);
  b.evaluate(sector, la2, ph2);
  for (std::size_t i = 0; i < sector.size(); ++i) {
    EXPECT_DOUBLE_EQ(la1[i], la2[i]);
    EXPECT_DOUBLE_EQ(ph1[i], ph2[i]);
  }
}

TEST(Ansatz, CheckpointRoundTrip) {
  QiankunNet a(smallConfig(8, 2, 2, 31));
  const std::string path = ::testing::TempDir() + "/qiankun_ckpt.bin";
  io::CheckpointWriter w;
  io::addNet(w, a);
  w.save(path);
  const io::CheckpointReader r(path);
  QiankunNet b(smallConfig(8, 2, 2, 99));  // different init, same architecture
  io::loadNet(r, b);
  const auto sector = numberSector(8, 2, 2);
  std::vector<Real> la1, ph1, la2, ph2;
  a.evaluate(sector, la1, ph1);
  b.evaluate(sector, la2, ph2);
  for (std::size_t i = 0; i < sector.size(); ++i) {
    EXPECT_DOUBLE_EQ(la1[i], la2[i]);  // binary f64 round trip: bit-exact
    EXPECT_DOUBLE_EQ(ph1[i], ph2[i]);
  }
  // Architecture mismatch is rejected.
  QiankunNet c(smallConfig(10, 2, 2, 1));
  EXPECT_THROW(io::loadNet(r, c), io::SchemaError);
}

TEST(Ansatz, GradientFlattenRoundTrip) {
  QiankunNet net(smallConfig(8, 2, 2));
  auto params = net.parameters();
  Rng rng(21);
  for (auto* p : params)
    for (Index i = 0; i < p->numel(); ++i) p->grad[i] = rng.normal();
  std::vector<Real> flat;
  net.flattenGradients(flat);
  EXPECT_EQ(static_cast<Index>(flat.size()), net.parameterCount());
  std::vector<Real> doubled = flat;
  for (auto& v : doubled) v *= 2.0;
  net.loadGradients(doubled);
  std::vector<Real> flat2;
  net.flattenGradients(flat2);
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_DOUBLE_EQ(flat2[i], 2.0 * flat[i]);
}

TEST(Ansatz, LoadGradientsRejectsWrongLength) {
  QiankunNet net(smallConfig(8, 2, 2));
  const auto n = static_cast<std::size_t>(net.parameterCount());
  EXPECT_THROW(net.loadGradients(std::vector<Real>(n - 1, 1.0)), std::invalid_argument);
  EXPECT_THROW(net.loadGradients(std::vector<Real>(n + 1, 1.0)), std::invalid_argument);
  EXPECT_THROW(net.loadGradients({}), std::invalid_argument);
  // A rejected load leaves the gradients untouched.
  std::vector<Real> flat;
  net.flattenGradients(flat);
  for (Real g : flat) EXPECT_EQ(g, 0.0);
  EXPECT_NO_THROW(net.loadGradients(std::vector<Real>(n, 1.0)));
}

TEST(Ansatz, AdamWStepMatchesPlainLoopBitForBit) {
  // AdamW::step over the network's parameter list is the plain AdamW loop
  // (oracle::adamwStep) per tensor, bit for bit, with the moments carried
  // over several steps and every gradient zeroed after each.
  QiankunNet net(smallConfig(8, 2, 2));
  const auto params = net.parameters();
  nn::AdamWOptions o;
  o.lr = 2e-3;
  nn::AdamW opt(params, o);
  std::vector<std::vector<Real>> w, m, v;
  for (const auto* p : params) {
    w.emplace_back(p->value, p->value + p->numel());
    m.emplace_back(p->numel(), 0.0);
    v.emplace_back(p->numel(), 0.0);
  }
  Rng rng(23);
  for (long t = 1; t <= 4; ++t) {
    const Real lrScale = 0.25 * static_cast<Real>(t);
    for (std::size_t k = 0; k < params.size(); ++k) {
      for (Index i = 0; i < params[k]->numel(); ++i) params[k]->grad[i] = 1e-2 * rng.normal();
      std::vector<Real> g(params[k]->grad, params[k]->grad + params[k]->numel());
      oracle::adamwStep(o, o.lr * lrScale, t, g.size(), w[k].data(), g.data(),
                        m[k].data(), v[k].data());
    }
    opt.step(lrScale);
    std::size_t off = 0;  // parameter k's offset in the flat moments
    for (std::size_t k = 0; k < params.size(); ++k) {
      const auto& p = *params[k];
      for (std::size_t i = 0; i < w[k].size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(p.value[i]),
                  std::bit_cast<std::uint64_t>(w[k][i]))
            << p.name << "[" << i << "] step " << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(opt.moments1()[off + i]),
                  std::bit_cast<std::uint64_t>(m[k][i]))
            << p.name << "[" << i << "] step " << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(opt.moments2()[off + i]),
                  std::bit_cast<std::uint64_t>(v[k][i]))
            << p.name << "[" << i << "] step " << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(p.grad[i]), 0u)
            << p.name << "[" << i << "] step " << t;
      }
      off += w[k].size();
    }
  }
}

TEST(Ansatz, AdamWSlicesMatchOneWholeStoreStep) {
  // Stage 6's sharded step: three optimizers stepping the slices [0, a),
  // [a, b) and [b, n) of one net's store, which cut through parameters, give
  // the values and moments of one whole-store optimizer on a twin net, bit
  // for bit, over several steps.  Each slice's step zeroes exactly its own
  // gradients and leaves every other element of the store alone.
  QiankunNet whole(smallConfig(8, 2, 2)), sharded(smallConfig(8, 2, 2));
  const auto n = static_cast<std::size_t>(whole.parameterCount());
  const std::size_t a = n / 3 + 7, b = 2 * n / 3 - 5;
  nn::AdamWOptions o;
  o.lr = 2e-3;
  nn::AdamW wholeOpt(whole.parameters(), o);
  std::vector<nn::AdamW> sliceOpts;
  const std::size_t bounds[] = {0, a, b, n};
  for (int k = 0; k < 3; ++k)
    sliceOpts.emplace_back(sharded.parameters(), o,
                           nn::AdamW::Slice{static_cast<Index>(bounds[k]),
                                            static_cast<Index>(bounds[k + 1])});
  const auto bits = [](Real x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(29);
  for (long t = 1; t <= 4; ++t) {
    const Real lrScale = 0.25 * static_cast<Real>(t);
    for (std::size_t i = 0; i < n; ++i)
      whole.gradients()[i] = sharded.gradients()[i] = 1e-2 * rng.normal();
    wholeOpt.step(lrScale);
    for (int k = 0; k < 3; ++k) {
      const std::vector<Real> valuesBefore(sharded.values().begin(), sharded.values().end());
      const std::vector<Real> gradsBefore(sharded.gradients().begin(),
                                          sharded.gradients().end());
      sliceOpts[static_cast<std::size_t>(k)].step(lrScale);
      for (std::size_t i = 0; i < n; ++i) {
        if (i >= bounds[k] && i < bounds[k + 1]) {
          ASSERT_EQ(bits(sharded.gradients()[i]), 0u) << "slice " << k << ", element " << i;
        } else {
          ASSERT_EQ(bits(sharded.gradients()[i]), bits(gradsBefore[i]))
              << "slice " << k << " touched gradient " << i;
          ASSERT_EQ(bits(sharded.values()[i]), bits(valuesBefore[i]))
              << "slice " << k << " touched value " << i;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bits(sharded.values()[i]), bits(whole.values()[i])) << i << " step " << t;
    for (int k = 0; k < 3; ++k) {
      const nn::AdamW& sliceOpt = sliceOpts[static_cast<std::size_t>(k)];
      ASSERT_EQ(sliceOpt.moments1().size(), bounds[k + 1] - bounds[k]);
      for (std::size_t i = 0; i < sliceOpt.moments1().size(); ++i) {
        ASSERT_EQ(bits(sliceOpt.moments1()[i]), bits(wholeOpt.moments1()[bounds[k] + i]))
            << "slice " << k << ", element " << i << " step " << t;
        ASSERT_EQ(bits(sliceOpt.moments2()[i]), bits(wholeOpt.moments2()[bounds[k] + i]))
            << "slice " << k << ", element " << i << " step " << t;
      }
    }
  }
}
