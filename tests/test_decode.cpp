// Equivalence of the KV-cached incremental-decode engine with the stateless
// full-forward oracle (tests/oracle.hpp), including under the sampling tree's
// split/prune row gathering, and of the samplers across kernel backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nqs/sampler.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {

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

void expectSameSampleSet(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.nUnique(), b.nUnique());
  for (std::size_t i = 0; i < a.nUnique(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
  }
}

/// The sweep's fused ln|Psi| must be the oracle's ln|Psi| of the drawn
/// samples: every split along each sample's path used the conditionals the
/// oracle recomputes from a full forward.
void expectOracleLogAmp(const QiankunNet& net, const SampleSet& set) {
  const std::vector<Real> ref = oracle::logAmp(net, set.samples);
  ASSERT_EQ(set.logAmp.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(set.logAmp[i], ref[i]) << "sample " << i;
}

}  // namespace

TEST(Decode, StepConditionalsMatchesFullForwardUnderRandomGathers) {
  // Drive a random sampling-tree frontier: at every step compare the
  // incremental conditionals against the full-forward oracle, then apply a
  // random split/prune/permute of the rows (children of different parents
  // interleaved in random order, parents dropped and duplicated).
  const int n = 16, na = 4, nb = 3;
  QiankunNet net(smallConfig(n, na, nb));
  const int L = net.nSteps();
  Rng rng(99);

  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<int>> prefixes{{}};  // one root row
    std::vector<std::array<int, 2>> counts{{0, 0}};
    std::vector<Bits128> bits{Bits128{}};  // the same prefixes as bits
    nn::DecodeState state;
    net.beginDecode(state, 1);
    std::vector<Real> inc;

    for (int s = 0; s < L; ++s) {
      const int batch = static_cast<int>(prefixes.size());
      std::vector<int> flat;
      for (const auto& p : prefixes) flat.insert(flat.end(), p.begin(), p.end());
      const std::vector<Real> ref = oracle::conditionals(net, flat, batch, s, counts);
      net.stepConditionals(state, bits, inc);
      ASSERT_EQ(ref.size(), inc.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], inc[i]) << "step " << s << " entry " << i;

      if (s + 1 == L) break;
      // Random split/prune: each row spawns 0-2 children among the outcomes
      // with nonzero conditional probability, in random interleaved order.
      struct Child {
        Index parent;
        int token;
      };
      std::vector<Child> children;
      for (int b = 0; b < batch; ++b) {
        std::vector<int> allowed;
        for (int t = 0; t < 4; ++t)
          if (ref[static_cast<std::size_t>(b * 4 + t)] > 0.0) allowed.push_back(t);
        std::shuffle(allowed.begin(), allowed.end(), rng);
        const auto nChildren =
            std::min<std::size_t>(allowed.size(), rng.below(3));  // 0, 1 or 2
        for (std::size_t c = 0; c < nChildren; ++c)
          children.push_back({static_cast<Index>(b), allowed[c]});
      }
      if (children.empty()) {  // keep at least one live row
        int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(batch)));
        for (int t = 0; t < 4; ++t)
          if (ref[static_cast<std::size_t>(b * 4 + t)] > 0.0) {
            children.push_back({static_cast<Index>(b), t});
            break;
          }
      }
      std::shuffle(children.begin(), children.end(), rng);

      std::vector<Index> rows;
      std::vector<std::vector<int>> nextPrefixes;
      std::vector<std::array<int, 2>> nextCounts;
      std::vector<Bits128> nextBits;
      for (const Child& c : children) {
        rows.push_back(c.parent);
        auto p = prefixes[static_cast<std::size_t>(c.parent)];
        p.push_back(c.token);
        nextPrefixes.push_back(std::move(p));
        nextCounts.push_back({counts[static_cast<std::size_t>(c.parent)][0] + (c.token & 1),
                              counts[static_cast<std::size_t>(c.parent)][1] + ((c.token >> 1) & 1)});
        nextBits.push_back(net.applyToken(bits[static_cast<std::size_t>(c.parent)], s, c.token));
      }
      state.gather(rows);
      prefixes = std::move(nextPrefixes);
      counts = std::move(nextCounts);
      bits = std::move(nextBits);
    }
  }
}

namespace {

constexpr nn::kernels::KernelPolicy kAllKernels[] = {
    nn::kernels::KernelPolicy::kScalar, nn::kernels::KernelPolicy::kSimd,
    nn::kernels::KernelPolicy::kThreaded, nn::kernels::KernelPolicy::kAuto};

}  // namespace

TEST(Decode, BatchBasBitIdenticalAcrossPolicies) {
  // Every KernelPolicy must draw the very same sample set: the kernel
  // backends share one arithmetic contract (src/nn/kernels/attn_row.hpp), so
  // this holds bit for bit, not just statistically.  Each sweep's fused
  // ln|Psi| must equal the full-forward oracle's.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  opts.seed = 41;
  opts.exec.kernel = nn::kernels::KernelPolicy::kScalar;
  BasSweepEngine sampler(net);
  const SampleSet ref = sampler.sweep(opts);
  EXPECT_GT(ref.nUnique(), 1u);
  for (auto kernel : kAllKernels) {
    opts.exec.kernel = kernel;
    const SampleSet& got = sampler.sweep(opts);
    expectSameSampleSet(ref, got);
    expectOracleLogAmp(net, got);
  }
}

TEST(Decode, ParallelBasBitIdenticalAcrossPolicies) {
  QiankunNet net(smallConfig(12, 3, 2));
  SamplerOptions opts;
  opts.nSamples = 1 << 13;
  opts.seed = 23;
  BasSweepEngine sampler(net);
  for (int ranks : {2, 3}) {
    for (int r = 0; r < ranks; ++r) {
      opts.exec.kernel = nn::kernels::KernelPolicy::kScalar;
      const SampleSet ref = sampler.sweep(opts, r, ranks, 8);
      for (auto kernel : kAllKernels) {
        opts.exec.kernel = kernel;
        const SampleSet& inc = sampler.sweep(opts, r, ranks, 8);
        expectSameSampleSet(ref, inc);
        expectOracleLogAmp(net, inc);
      }
    }
  }
}

TEST(Decode, StateReuseAcrossSweepsIsBitIdentical) {
  // A DecodeState (KV arena + step tape) is reusable across sweeps without
  // re-allocation or re-zeroing; a reused state must produce exactly the
  // bits of a fresh one — no stale K/V or tape contents (the logits
  // included) may leak into the next sweep.
  const Index L = 6, d = 16, heads = 4, layers = 2;
  Rng rng(31);
  nn::TransformerAR net(L, d, heads, layers, rng);
  auto sweep = [&](nn::DecodeState& state, Index batch,
                   nn::kernels::KernelPolicy kernel) {
    net.beginDecode(state, batch, kernel);
    std::vector<Real> flat;
    std::vector<int> tokens(static_cast<std::size_t>(batch));
    Rng step(7);
    for (Index s = 0; s < L; ++s) {
      for (auto& t : tokens)
        t = s == 0 ? nn::TransformerAR::kBos : static_cast<int>(step.below(4));
      const Real* logits = net.decodeStep(state, tokens);
      flat.insert(flat.end(), logits, logits + batch * nn::TransformerAR::kOutcomes);
    }
    return flat;
  };
  for (auto kernel : kAllKernels) {
    nn::DecodeState fresh;
    const auto ref = sweep(fresh, 8, kernel);
    nn::DecodeState reused;
    (void)sweep(reused, 8, kernel);            // warm-up sweep
    const Real* arenaBefore = reused.arena.data();
    const auto again = sweep(reused, 8, kernel);  // same shape: arena reused
    EXPECT_EQ(reused.arena.data(), arenaBefore) << "same-shape begin reallocated";
    ASSERT_EQ(ref.size(), again.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], again[i]) << "logit " << i;
    // Smaller batch still reuses the (larger) arena; bits must match a fresh
    // state of that batch too.
    nn::DecodeState freshSmall;
    const auto refSmall = sweep(freshSmall, 3, kernel);
    const auto smallReused = sweep(reused, 3, kernel);
    ASSERT_EQ(refSmall.size(), smallReused.size());
    for (std::size_t i = 0; i < refSmall.size(); ++i)
      EXPECT_EQ(refSmall[i], smallReused[i]) << "small-batch logit " << i;
  }
}

TEST(Decode, CapacityExhaustionThrows) {
  QiankunNet net(smallConfig(8, 2, 2));
  nn::DecodeState state;
  net.beginDecode(state, 1);
  std::vector<Bits128> prefix{Bits128{}};
  std::vector<Real> probs;
  for (int s = 0; s < net.nSteps(); ++s) {
    net.stepConditionals(state, prefix, probs);
    int chosen = 0;
    for (int t = 0; t < 4; ++t)
      if (probs[static_cast<std::size_t>(t)] > 0.0) chosen = t;
    prefix[0] = net.applyToken(prefix[0], s, chosen);
  }
  EXPECT_THROW(net.stepConditionals(state, prefix, probs), std::logic_error);
}

TEST(Decode, SamplerOptionsExecDefaults) {
  // ExecutionPolicy is the sole engine-selection surface (the deprecated
  // per-field aliases of the consolidation are gone): defaults run auto
  // kernels with default tiles.
  SamplerOptions opts;
  EXPECT_EQ(opts.exec.kernel, nn::kernels::KernelPolicy::kAuto);
  EXPECT_EQ(opts.exec.sweepTileRows, 0);
}
