#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "nqs/sampler.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {
QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 5;
  return cfg;
}

bool conservesNumber(Bits128 x, int n, int na, int nb) {
  int up = 0, down = 0;
  for (int q = 0; q < n; q += 2) up += x.get(q);
  for (int q = 1; q < n; q += 2) down += x.get(q);
  return up == na && down == nb;
}
}  // namespace

TEST(MultinomialSplit, ConservesTotalAndMatchesProbs) {
  Rng rng(3);
  const Real probs[4] = {0.1, 0.2, 0.3, 0.4};
  double mean[4] = {0, 0, 0, 0};
  const int trials = 300;
  const std::uint64_t n = 10000;
  for (int tr = 0; tr < trials; ++tr) {
    const auto split = multinomialSplit4(rng, n, probs);
    std::uint64_t total = 0;
    for (int t = 0; t < 4; ++t) {
      total += split[static_cast<std::size_t>(t)];
      mean[t] += static_cast<double>(split[static_cast<std::size_t>(t)]);
    }
    EXPECT_EQ(total, n);
  }
  for (int t = 0; t < 4; ++t)
    EXPECT_NEAR(mean[t] / trials / static_cast<double>(n), probs[t], 0.01);
}

TEST(MultinomialSplit, HugeCountsStayExact) {
  Rng rng(5);
  const Real probs[4] = {0.25, 0.25, 0.25, 0.25};
  const std::uint64_t n = 1ull << 40;  // ~1e12, the paper's N_s scale
  const auto split = multinomialSplit4(rng, n, probs);
  std::uint64_t total = 0;
  for (auto v : split) total += v;
  EXPECT_EQ(total, n);
  for (auto v : split)
    EXPECT_NEAR(static_cast<double>(v) / static_cast<double>(n), 0.25, 1e-3);
}

TEST(MultinomialSplit, ZeroProbabilityGetsNothing) {
  Rng rng(7);
  const Real probs[4] = {0.0, 0.5, 0.5, 0.0};
  for (int tr = 0; tr < 50; ++tr) {
    const auto split = multinomialSplit4(rng, 1000, probs);
    EXPECT_EQ(split[0], 0u);
    EXPECT_EQ(split[3], 0u);
    EXPECT_EQ(split[1] + split[2], 1000u);
  }
}

TEST(Bas, WeightsSumToNs) {
  QiankunNet net(smallConfig(8, 2, 2));
  SamplerOptions opts;
  opts.nSamples = 4096;
  BasSweepEngine sampler(net);
  const SampleSet& s = sampler.sweep(opts);
  EXPECT_EQ(s.totalWeight(), 4096u);
  EXPECT_GT(s.nUnique(), 0u);
}

TEST(Bas, AllSamplesConserveParticleNumber) {
  const int n = 10, na = 3, nb = 2;
  QiankunNet net(smallConfig(n, na, nb));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  BasSweepEngine sampler(net);
  const SampleSet& s = sampler.sweep(opts);
  for (const auto& x : s.samples) EXPECT_TRUE(conservesNumber(x, n, na, nb));
}

TEST(Bas, SamplesAreUnique) {
  QiankunNet net(smallConfig(8, 2, 2));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  BasSweepEngine sampler(net);
  const SampleSet& s = sampler.sweep(opts);
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> seen;
  for (const auto& x : s.samples) seen[{x.lo, x.hi}]++;
  for (const auto& [k, count] : seen) EXPECT_EQ(count, 1);
}

TEST(Bas, DeterministicGivenSeed) {
  QiankunNet net(smallConfig(8, 2, 2));
  SamplerOptions opts;
  opts.nSamples = 1 << 12;
  opts.seed = 31;
  BasSweepEngine sampler(net);
  const SampleSet a = sampler.sweep(opts);
  const SampleSet& b = sampler.sweep(opts);
  ASSERT_EQ(a.nUnique(), b.nUnique());
  for (std::size_t i = 0; i < a.nUnique(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]);
    EXPECT_EQ(a.weights[i], b.weights[i]);
  }
}

TEST(Bas, FrequenciesMatchBornProbabilities) {
  // chi^2-style check: empirical frequencies ~ |Psi|^2 for a random net.
  const int n = 6, na = 2, nb = 1;
  QiankunNet net(smallConfig(n, na, nb));
  SamplerOptions opts;
  opts.nSamples = 1 << 20;
  BasSweepEngine sampler(net);
  const SampleSet& s = sampler.sweep(opts);
  std::vector<Real> la, ph;
  net.evaluate(s.samples, la, ph);
  for (std::size_t i = 0; i < s.nUnique(); ++i) {
    const Real p = std::exp(2.0 * la[i]);
    const Real freq = static_cast<Real>(s.weights[i]) / static_cast<Real>(opts.nSamples);
    if (p < 1e-4) continue;  // skip ultra-rare leaves
    EXPECT_NEAR(freq, p, 5.0 * std::sqrt(p * (1 - p) / static_cast<Real>(opts.nSamples)))
        << toBitString(s.samples[i], n);
  }
}

TEST(ParallelBas, UnionEqualsSerialTotals) {
  // The rank-partitioned sampler must conserve the total sample count and
  // produce disjoint unique samples across ranks.
  const int n = 10, na = 3, nb = 3, ranks = 4;
  QiankunNet net(smallConfig(n, na, nb));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  std::uint64_t total = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> seen;
  BasSweepEngine sampler(net);
  for (int r = 0; r < ranks; ++r) {
    const SampleSet& s = sampler.sweep(opts, r, ranks, 8);
    total += s.totalWeight();
    for (const auto& x : s.samples) {
      seen[{x.lo, x.hi}]++;
      EXPECT_TRUE(conservesNumber(x, n, na, nb));
    }
  }
  EXPECT_EQ(total, opts.nSamples);
  for (const auto& [k, c] : seen) EXPECT_EQ(c, 1);  // disjoint chunks
}

TEST(ParallelBas, LoadRoughlyBalanced) {
  const int ranks = 4;
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 16;
  std::vector<std::uint64_t> loads;
  BasSweepEngine sampler(net);
  for (int r = 0; r < ranks; ++r)
    loads.push_back(sampler.sweep(opts, r, ranks, 16).totalWeight());
  const auto [mn, mx] = std::minmax_element(loads.begin(), loads.end());
  EXPECT_LT(static_cast<double>(*mx), 2.5 * static_cast<double>(std::max<std::uint64_t>(*mn, 1)));
}
