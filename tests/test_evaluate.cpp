// Teacher-forced batched evaluate() on the tiled tape forward: bit-identity
// with the stateless full-forward oracle (tests/oracle.hpp) for amplitudes
// and logits, and across KernelPolicy for phases, on ragged batch sizes
// (empty batches, batches spanning several tiles, the tile-parallel loop);
// zero heap allocations once warm; and the tape gradient (evaluateGrad)
// across tile geometries.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "alloc_count.hpp"
#include "nqs/ansatz.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {

constexpr nn::kernels::KernelPolicy kAllKernels[] = {
    nn::kernels::KernelPolicy::kScalar, nn::kernels::KernelPolicy::kSimd,
    nn::kernels::KernelPolicy::kThreaded, nn::kernels::KernelPolicy::kAuto};

QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta,
                             std::uint64_t seed = 5) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = seed;
  return cfg;
}

/// All bitstrings of n qubits with exactly na up and nb down electrons.
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

/// ExecutionPolicy with everything default except the kernel and the tape
/// tile (gradTileRows, which sizes evaluate()'s tiles too).
exec::ExecutionPolicy execFor(nn::kernels::KernelPolicy kernel, int tileRows = 0) {
  exec::ExecutionPolicy ex;
  ex.kernel = kernel;
  ex.gradTileRows = tileRows;
  return ex;
}

/// The perfbench train-c2h4o net: 38 qubits (L = 19), 12 + 12 electrons,
/// d_model 16, a 512 x 2 phase MLP.  One sample carves ~0.2 MiB of tape in
/// the amplitude loop and ~33 KB in the phase loop, so the default budget
/// gives the two loops different tiles.
QiankunNetConfig c2h4oConfig() {
  QiankunNetConfig cfg;
  cfg.nQubits = 38;
  cfg.nAlpha = 12;
  cfg.nBeta = 12;
  cfg.seed = 21;
  return cfg;
}

/// `count` deterministic in-sector samples: nAlpha electrons on even qubits
/// and nBeta on odd ones, positions drawn per sample (rejecting collisions).
std::vector<Bits128> randomInSector(const QiankunNetConfig& cfg, std::size_t count) {
  const int orbitals = cfg.nQubits / 2;
  Rng rng(11);
  std::vector<Bits128> samples(count);
  for (auto& s : samples) {
    for (int spin = 0; spin < 2; ++spin) {
      const int electrons = spin == 0 ? cfg.nAlpha : cfg.nBeta;
      for (int placed = 0; placed < electrons;) {
        const int q =
            2 * static_cast<int>(rng.below(static_cast<std::uint64_t>(orbitals))) + spin;
        if (!s.get(q)) {
          s.set(q, true);
          ++placed;
        }
      }
    }
  }
  return samples;
}

Real numericalGrad(const std::function<Real()>& f, Real& param, Real eps = 1e-5) {
  const Real orig = param;
  param = orig + eps;
  const Real fp = f();
  param = orig - eps;
  const Real fm = f();
  param = orig;
  return (fp - fm) / (2 * eps);
}

}  // namespace

TEST(Evaluate, MatchesFullForwardBitIdentical) {
  // evaluate() must reproduce the oracle's full-forward amplitudes, and the
  // kScalar phases, bit for bit, for every kernel policy, on ragged batch
  // sizes: the empty batch, sub-tile batches, and batches spanning several
  // tiles with a ragged final tile (4-sample tiles below).  Out-of-sector
  // samples must hit the same zero-amplitude sentinel on both paths.
  const int n = 12, na = 3, nb = 2;
  QiankunNet net(smallConfig(n, na, nb));
  std::vector<Bits128> pool = numberSector(n, na, nb);
  pool.push_back(numberSector(n, na + 1, nb)[0]);  // outside the sector
  pool.push_back(numberSector(n, na, nb + 1)[1]);

  for (std::size_t batch : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{4}, std::size_t{11}, pool.size()}) {
    ASSERT_LE(batch, pool.size());
    const std::vector<Bits128> samples(pool.begin(),
                                       pool.begin() + static_cast<long>(batch));
    const std::vector<Real> laRef = oracle::logAmp(net, samples);
    net.setEvalPolicy(execFor(nn::kernels::KernelPolicy::kScalar));
    std::vector<Real> unused, phRef;
    net.evaluate(samples, unused, phRef);
    for (auto kernel : kAllKernels) {
      net.setEvalPolicy(execFor(kernel, /*tileRows=*/4));
      std::vector<Real> la, ph;
      net.evaluate(samples, la, ph);
      ASSERT_EQ(la.size(), laRef.size());
      ASSERT_EQ(ph.size(), phRef.size());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(la[i], laRef[i]) << "batch " << batch << " sample " << i;
        EXPECT_EQ(ph[i], phRef[i]) << "batch " << batch << " sample " << i;
      }
    }
  }
}

TEST(Evaluate, TiledEvaluateMatchesForwardLogits) {
  // TransformerAR level: the tiled teacher-forced evaluate's logits are
  // bit-identical to the oracle's one-tile forward, including across tile
  // boundaries (batch 10 in tiles of 3, 3, 3, 1).
  const Index L = 7, d = 16, heads = 4, layers = 2, batch = 10;
  Rng rng(41);
  nn::TransformerAR net(L, d, heads, layers, rng);
  std::vector<int> tokens(static_cast<std::size_t>(batch * L));
  Rng tok(13);
  for (Index b = 0; b < batch; ++b) {
    tokens[static_cast<std::size_t>(b * L)] = nn::TransformerAR::kBos;
    for (Index s = 1; s < L; ++s)
      tokens[static_cast<std::size_t>(b * L + s)] = static_cast<int>(tok.below(4));
  }
  const std::vector<Real> ref = oracle::logits(net, tokens, L);

  for (auto kernel : kAllKernels) {
    std::vector<Real> got(static_cast<std::size_t>(batch * L * 4), -1.0);
    std::vector<nn::TransformerAR::EvalTape> tapes;
    net.evaluateTiled(tapes, tokens, batch, L, /*tileRows=*/3, kernel,
                      [&](Index t0, Index tb, const Real* logits) {
                        std::copy(logits, logits + tb * L * 4,
                                  got.begin() + t0 * L * 4);
                      });
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], ref[i]) << "logit " << i;
  }
}

TEST(Evaluate, RejectsBadShapes) {
  // A token count that is not batch x window, a window longer than the
  // position table and an empty tile throw before any tile runs;
  // forwardTape itself rejects the long window instead of reading past the
  // position table.
  const Index L = 4, d = 8, heads = 2, layers = 1;
  Rng rng(3);
  nn::TransformerAR net(L, d, heads, layers, rng);
  std::vector<nn::TransformerAR::EvalTape> tapes;
  auto sink = [](Index, Index, const Real*) {};
  std::vector<int> tokens(static_cast<std::size_t>(2 * L), 0);
  EXPECT_THROW(net.evaluateTiled(tapes, tokens, 3, L, 1,
                                 nn::kernels::KernelPolicy::kAuto, sink),
               std::invalid_argument);
  EXPECT_THROW(net.evaluateTiled(tapes, tokens, 1, 2 * L, 1,
                                 nn::kernels::KernelPolicy::kAuto, sink),
               std::invalid_argument);
  EXPECT_THROW(net.evaluateTiled(tapes, tokens, 2, L, 0,
                                 nn::kernels::KernelPolicy::kAuto, sink),
               std::invalid_argument);
  nn::Tape tape;
  nn::TransformerAR::TapeFrame frame;
  EXPECT_THROW(net.forwardTape(tape, frame, tokens.data(), 2 * L, 2 * L),
               std::invalid_argument);
}

TEST(Evaluate, PerfbenchNetMatchesOracleUnderEveryKernel) {
  // At the perfbench net the default tile is the gradient's amplitude tile:
  // 300 samples run as 7 tiles of at most 43 with a ragged tail.  evaluate,
  // evaluateInto and psi must equal the oracle at tolerance 0 under every
  // kernel policy, kAuto and kThreaded on the tile-parallel loop.
#ifdef _OPENMP
  if (omp_get_max_threads() < 2) omp_set_num_threads(2);
#endif
  const QiankunNetConfig cfg = c2h4oConfig();
  QiankunNet net(cfg);
  const auto samples = randomInSector(cfg, 300);
  const Index bytesPerSample =
      net.gradTapeRealsPerSample().amplitude * static_cast<Index>(sizeof(Real));
  const Index tile = nn::TransformerAR::kGradTapeBudgetBytes / bytesPerSample;
  ASSERT_EQ((300 + tile - 1) / tile, 7) << "tile " << tile;
  ASSERT_NE(300 % tile, 0) << "tile " << tile;

  const std::vector<Real> ref = oracle::logAmp(net, samples);
  net.setEvalPolicy(execFor(nn::kernels::KernelPolicy::kScalar));
  std::vector<Real> unused, phRef;
  net.evaluate(samples, unused, phRef);
  for (auto kernel : kAllKernels) {
    net.setEvalPolicy(execFor(kernel));
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph);
    QiankunNet::EvalSlot slot;
    std::vector<Real> laInto, phInto;
    net.evaluateInto(slot, samples, laInto, phInto, kernel);
    const std::vector<Complex> psi = net.psi(samples);
    const char* name = nn::kernels::kernelPolicyName(kernel);
#ifdef _OPENMP
    const bool parallel = kernel == nn::kernels::KernelPolicy::kAuto ||
                          kernel == nn::kernels::KernelPolicy::kThreaded;
    EXPECT_EQ(slot.tapes.size() > 1, parallel) << name;
#endif
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(la[i], ref[i]) << name << " sample " << i;
      EXPECT_EQ(laInto[i], ref[i]) << name << " sample " << i;
      EXPECT_EQ(ph[i], phRef[i]) << name << " sample " << i;
      EXPECT_EQ(phInto[i], phRef[i]) << name << " sample " << i;
      const Complex want = QiankunNet::psiValue(ref[i], phRef[i]);
      EXPECT_EQ(psi[i].real(), want.real()) << name << " sample " << i;
      EXPECT_EQ(psi[i].imag(), want.imag()) << name << " sample " << i;
    }
  }
}

TEST(Evaluate, WarmEvaluateIntoAllocatesNothingWithinTheBudget) {
  // Once a slot has seen a batch, a same-size evaluateInto on the serial
  // kSimd kernels performs zero heap allocations and no tape growth, and
  // one tile's tape stays within the gradient tape budget.
  const QiankunNetConfig cfg = c2h4oConfig();
  const QiankunNet net(cfg);
  const auto samples = randomInSector(cfg, 300);
  QiankunNet::EvalSlot slot;
  std::vector<Real> la, ph;
  net.evaluateInto(slot, samples, la, ph, nn::kernels::KernelPolicy::kSimd);
  ASSERT_EQ(slot.tapes.size(), 1u);
  const nn::Tape::Stats cold = slot.tapes[0].tape.stats();  // copy
  const std::uint64_t allocs0 = allocationCount();
  net.evaluateInto(slot, samples, la, ph, nn::kernels::KernelPolicy::kSimd);
  EXPECT_EQ(allocationCount() - allocs0, 0u);
  const nn::Tape::Stats& warm = slot.tapes[0].tape.stats();
  EXPECT_EQ(warm.grows, cold.grows);
  EXPECT_EQ(warm.overflows, cold.overflows);
  EXPECT_GT(warm.highWater, 0u);
  EXPECT_LE(static_cast<Index>(warm.highWater * sizeof(Real)),
            nn::TransformerAR::kGradTapeBudgetBytes);
}

TEST(Evaluate, PsiSharesTheEvaluateEntryPoint) {
  // psi() = psiValue over evaluate() output: the same complex values as the
  // oracle's full-forward ln|Psi| with evaluate()'s phase, and out-of-sector
  // samples map to exactly 0.
  const int n = 10, na = 2, nb = 2;
  QiankunNet net(smallConfig(n, na, nb, 23));
  std::vector<Bits128> samples = numberSector(n, na, nb);
  samples.resize(9);
  samples.push_back(numberSector(n, na + 1, nb)[0]);

  net.setEvalPolicy(execFor(nn::kernels::KernelPolicy::kAuto, /*tileRows=*/4));
  const std::vector<Real> laRef = oracle::logAmp(net, samples);
  std::vector<Real> la, ph;
  net.evaluate(samples, la, ph);
  const std::vector<Complex> got = net.psi(samples);
  ASSERT_EQ(laRef.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Complex ref = QiankunNet::psiValue(laRef[i], ph[i]);
    EXPECT_EQ(ref.real(), got[i].real()) << i;
    EXPECT_EQ(ref.imag(), got[i].imag()) << i;
  }
  EXPECT_EQ(got.back(), (Complex{0.0, 0.0}));  // outside the sector
}

TEST(Evaluate, GradcheckWithEvaluateLoss) {
  // Numeric gradcheck of the VMC loss where every finite-difference forward
  // runs evaluate() (multi-tile: 2-sample tiles on batch 3) and the analytic
  // gradients come from evaluateGrad's forward and backward on the tape: the
  // two must describe the same function.
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
  QiankunNet net(cfg);
  net.setEvalPolicy(execFor(nn::kernels::KernelPolicy::kAuto, /*tileRows=*/2));
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
  net.evaluateGrad(samples, cA, cP);
  Rng rng(123);
  for (nn::Parameter* p : net.parameters()) {
    const auto nEl = static_cast<std::size_t>(p->numel());
    for (int s = 0; s < 2; ++s) {
      const std::size_t i = rng.below(nEl);
      const Real analytic = p->grad[i];
      const Real numeric = numericalGrad(loss, p->value[i]);
      EXPECT_NEAR(analytic, numeric, 5e-5 * std::max(1.0, std::abs(numeric)))
          << p->name << "[" << i << "]";
    }
  }
}

TEST(EvaluateGrad, TiledBitIdenticalToMonolithicAcrossTileGeometries) {
  // The recompute-in-tiles training step must fill parameter gradients
  // bit-identical to one tape tile spanning the batch (gradTileRows = -1)
  // at every tile geometry: degenerate single-sample tiles, a ragged last
  // tile (32 on batch 70 -> 32, 32, 6), one tile larger than the batch
  // (256 > 70, single ragged tile), an exact-batch tile, and the engine
  // default (0).
  const int n = 12, na = 3, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(70);
    return s;
  }();
  std::vector<Real> dLa(samples.size()), dPh(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    dLa[i] = 0.1 * (static_cast<Real>(i % 7) - 3.0);
    dPh[i] = 0.05 * (static_cast<Real>(i % 5) - 2.0);
  }
  auto gradsWithTile = [&](int tile) {
    QiankunNet net(smallConfig(n, na, nb, 77));
    exec::ExecutionPolicy ex;
    ex.gradTileRows = tile;
    net.setEvalPolicy(ex);
    net.evaluateGrad(samples, dLa, dPh);
    std::vector<Real> g;
    net.flattenGradients(g);
    return g;
  };
  const auto ref = gradsWithTile(-1);  // one tile spanning the batch
  ASSERT_FALSE(ref.empty());
  for (int tile : {1, 32, 256, static_cast<int>(samples.size()), 0}) {
    const auto got = gradsWithTile(tile);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], got[i]) << "tile " << tile << " grad " << i;
  }
}

TEST(EvaluateGrad, DefaultSplitBitIdenticalToOneTileAndWithinTheBudget) {
  // At the perfbench net the default tiles differ per loop: 43 samples per
  // amplitude tile (600 = 13 x 43 + 41, ragged) and 502 per phase tile
  // (502 + 98, ragged).  The gradients must still equal one tile spanning
  // the batch at tolerance 0, and the tape must stay within the budget (plus
  // at most one cache line of alignment per carved span) while using most
  // of it.
  const QiankunNetConfig cfg = c2h4oConfig();
  const auto samples = randomInSector(cfg, 600);
  std::vector<Real> dLa(samples.size()), dPh(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    dLa[i] = 0.01 * (static_cast<Real>(i % 13) - 6.0);
    dPh[i] = 0.01 * (static_cast<Real>(i % 9) - 4.0);
  }
  auto step = [&](QiankunNet& net, int tile) {
    exec::ExecutionPolicy ex;
    ex.gradTileRows = tile;
    net.setEvalPolicy(ex);
    net.evaluateGrad(samples, dLa, dPh);
    std::vector<Real> g;
    net.flattenGradients(g);
    return g;
  };
  QiankunNet ref(cfg), split(cfg);
  const auto want = step(ref, -1);
  const auto got = step(split, 0);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]) << "grad " << i;

  const auto cost = split.gradTapeRealsPerSample();
  const auto bytesPerSample = cost.amplitude * static_cast<Index>(sizeof(Real));
  const Index ampTile = nn::TransformerAR::kGradTapeBudgetBytes / bytesPerSample;
  const Index phaseTile = nn::TransformerAR::kGradTapeBudgetBytes /
                          (cost.phase * static_cast<Index>(sizeof(Real)));
  const auto batch = static_cast<Index>(samples.size());
  ASSERT_GT(ampTile, 1);
  ASSERT_LT(ampTile, batch);
  ASSERT_LT(phaseTile, batch);
  ASSERT_NE(batch % ampTile, 0) << "amplitude tile " << ampTile;
  ASSERT_NE(batch % phaseTile, 0) << "phase tile " << phaseTile;
  const auto tapeBytes =
      static_cast<Index>(split.gradTapeStats().highWater * sizeof(Real));
  EXPECT_LE(tapeBytes, nn::TransformerAR::kGradTapeBudgetBytes + 128 * 64);
  EXPECT_GE(tapeBytes, ampTile * bytesPerSample);
}

TEST(EvaluateGrad, TapeCostMatchesTheMeasuredCarve) {
  // 8-sample tiles on 8 samples carve no alignment slack, so the tape's high
  // water is exactly 8 x the per-sample cost of the larger loop: the
  // amplitude loop at the perfbench net, the phase loop at a net with a
  // small transformer and the same wide phase MLP.
  QiankunNetConfig phaseHeavy = smallConfig(12, 3, 2);
  phaseHeavy.dModel = 8;
  phaseHeavy.nHeads = 2;
  phaseHeavy.nDecoders = 1;
  phaseHeavy.phaseHidden = 512;
  phaseHeavy.phaseHiddenLayers = 2;
  for (const QiankunNetConfig& cfg : {c2h4oConfig(), phaseHeavy}) {
    QiankunNet net(cfg);
    exec::ExecutionPolicy ex;
    ex.gradTileRows = 8;
    net.setEvalPolicy(ex);
    const auto samples = randomInSector(cfg, 8);
    const std::vector<Real> seeds(samples.size(), 0.1);
    net.evaluateGrad(samples, seeds, seeds);
    const auto cost = net.gradTapeRealsPerSample();
    EXPECT_EQ(static_cast<Index>(net.gradTapeStats().highWater),
              8 * std::max(cost.amplitude, cost.phase))
        << "nQubits " << cfg.nQubits << ", amplitude " << cost.amplitude
        << " / phase " << cost.phase << " Reals per sample";
  }
}

TEST(EvaluateGrad, EmptyBatchLeavesGradientsZero) {
  // Ranks that received no samples call the same training step; every tile
  // setting, untiled included, must accept the empty batch.
  const std::vector<Bits128> none;
  const std::vector<Real> zero;
  for (int tile : {-1, 0, 8}) {
    QiankunNet net(smallConfig(8, 2, 2));
    exec::ExecutionPolicy ex;
    ex.gradTileRows = tile;
    net.setEvalPolicy(ex);
    EXPECT_NO_THROW(net.evaluateGrad(none, zero, zero)) << "tile " << tile;
    std::vector<Real> g;
    net.flattenGradients(g);
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_EQ(g[i], 0.0) << "tile " << tile << " grad " << i;
  }
}

TEST(EvaluateGrad, RejectsMismatchedSeedLengths) {
  QiankunNet net(smallConfig(8, 2, 2));
  const auto samples = [&] {
    auto s = numberSector(8, 2, 2);
    s.resize(3);
    return s;
  }();
  const std::vector<Real> two = {0.1, 0.2}, three = {0.1, 0.2, 0.3};
  EXPECT_THROW(net.evaluateGrad(samples, two, three), std::invalid_argument);
  EXPECT_THROW(net.evaluateGrad(samples, three, two), std::invalid_argument);
}

TEST(EvaluateGrad, WarmStepsReuseTheTapeArena) {
  // After the first step has grown the tape to its high water, further
  // same-shape steps must not allocate: no primary-block growth, no side
  // chunks, same high water (the zero-allocation warm-step contract).  At
  // the perfbench net the default tiles alternate sizes on the one tape:
  // amplitude tiles of 43, 43 and 14 samples, then one phase tile of 100.
  // phases() and evaluate() run on the same tape between the steps, on a
  // larger batch than the step's; their tiles carve less than the
  // gradient's, so they must not grow it either, and every step's gradients
  // must equal those of a net that ran no inference, bit for bit.
  const QiankunNetConfig cfg = c2h4oConfig();
  const auto samples = randomInSector(cfg, 100);
  const auto queries = randomInSector(cfg, 300);
  std::vector<Real> dLa(samples.size(), 0.3), dPh(samples.size(), -0.2);
  for (int tile : {4, 0}) {
    QiankunNet net(cfg), plain(cfg);
    exec::ExecutionPolicy ex;
    ex.gradTileRows = tile;
    net.setEvalPolicy(ex);
    plain.setEvalPolicy(ex);
    net.evaluateGrad(samples, dLa, dPh);
    plain.evaluateGrad(samples, dLa, dPh);
    const nn::Tape::Stats cold = net.gradTapeStats();  // copy
    for (int step = 0; step < 3; ++step) {
      std::vector<Real> la, ph;
      net.phases(queries, ph);
      net.evaluate(queries, la, ph);
      net.evaluateGrad(samples, dLa, dPh);
      plain.evaluateGrad(samples, dLa, dPh);
      std::vector<Real> got, want;
      net.flattenGradients(got);
      plain.flattenGradients(want);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "tile " << tile << " step " << step << " grad " << i;
    }
    const nn::Tape::Stats& warm = net.gradTapeStats();
    EXPECT_EQ(warm.grows, cold.grows) << "tile " << tile;
    EXPECT_EQ(warm.overflows, cold.overflows) << "tile " << tile;
    EXPECT_EQ(warm.highWater, cold.highWater) << "tile " << tile;
    EXPECT_EQ(warm.capacity, cold.capacity) << "tile " << tile;
  }
}
