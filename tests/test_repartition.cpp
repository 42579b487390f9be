#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "vmc/repartition.hpp"

using namespace nnqs;
using namespace nnqs::vmc;

namespace {

std::uint64_t totalCost(const std::vector<std::uint64_t>& costs) {
  return std::accumulate(costs.begin(), costs.end(), std::uint64_t{0});
}

/// Every tile assigned exactly once, per-rank lists ascending.
void expectValidPartition(const RankPartition& part, std::size_t nTiles,
                          int nRanks) {
  ASSERT_EQ(part.tiles.size(), static_cast<std::size_t>(nRanks));
  ASSERT_EQ(part.plannedCost.size(), static_cast<std::size_t>(nRanks));
  std::vector<int> seen(nTiles, 0);
  for (const auto& rankTiles : part.tiles) {
    EXPECT_TRUE(std::is_sorted(rankTiles.begin(), rankTiles.end()));
    for (const std::uint32_t t : rankTiles) {
      ASSERT_LT(t, nTiles);
      ++seen[t];
    }
  }
  for (std::size_t t = 0; t < nTiles; ++t)
    EXPECT_EQ(seen[t], 1) << "tile " << t << " not assigned exactly once";
}

}  // namespace

TEST(Repartition, LptImprovesSkewedImbalance) {
  // The synthetic Fugaku-style skew: a few heavy tiles and a long tail of
  // light ones.  The equal-count split puts all heavy tiles on the first
  // rank; LPT must strictly improve the realized max/min imbalance.
  std::vector<std::uint64_t> costs;
  for (int i = 0; i < 4; ++i) costs.push_back(1700);  // heavy head
  for (int i = 0; i < 28; ++i) costs.push_back(100);  // light tail
  const int nRanks = 4;

  const RankPartition eq = partitionTilesEqual(costs.size(), nRanks);
  const RankPartition lpt = partitionTilesByCost(costs, nRanks);
  expectValidPartition(eq, costs.size(), nRanks);
  expectValidPartition(lpt, costs.size(), nRanks);

  const auto eqCosts = realizedRankCosts(eq, costs);
  const auto lptCosts = realizedRankCosts(lpt, costs);
  EXPECT_EQ(totalCost(eqCosts), totalCost(costs));
  EXPECT_EQ(totalCost(lptCosts), totalCost(costs));

  const auto imbalance = [](const std::vector<std::uint64_t>& rankCosts) {
    const auto [lo, hi] = std::minmax_element(rankCosts.begin(), rankCosts.end());
    return static_cast<double>(*hi) / static_cast<double>(std::max<std::uint64_t>(1, *lo));
  };
  // Equal split: rank 0 carries 4*1700 + 4*100 = 7200, others 800 -> 9x.
  EXPECT_GT(imbalance(eqCosts), 5.0);
  // LPT: heavy tiles spread one per rank -> near-perfect balance.
  EXPECT_LT(imbalance(lptCosts), 1.3);
  EXPECT_LT(imbalance(lptCosts), imbalance(eqCosts));
  // The packing's own bookkeeping agrees with the realized costs.
  EXPECT_EQ(lpt.plannedCost, lptCosts);
}

TEST(Repartition, IsDeterministic) {
  // Determinism is the correctness contract: every rank computes the
  // partition independently and they must agree, including on ties.
  std::vector<std::uint64_t> costs = {5, 5, 5, 5, 3, 3, 3, 0, 0, 7};
  const RankPartition a = partitionTilesByCost(costs, 3);
  const RankPartition b = partitionTilesByCost(costs, 3);
  EXPECT_EQ(a.tiles, b.tiles);
  EXPECT_EQ(a.plannedCost, b.plannedCost);
  expectValidPartition(a, costs.size(), 3);
}

TEST(Repartition, MoreRanksThanTiles) {
  const std::vector<std::uint64_t> costs = {4, 2};
  const RankPartition lpt = partitionTilesByCost(costs, 5);
  expectValidPartition(lpt, costs.size(), 5);
  const auto realized = realizedRankCosts(lpt, costs);
  EXPECT_EQ(totalCost(realized), 6u);
  const RankPartition eq = partitionTilesEqual(costs.size(), 5);
  expectValidPartition(eq, costs.size(), 5);
}

TEST(Repartition, EqualSplitIsContiguousBlocks) {
  const RankPartition eq = partitionTilesEqual(7, 3);
  expectValidPartition(eq, 7, 3);
  // ceil/floor blocks in rank order: 3, 2, 2.
  EXPECT_EQ(eq.tiles[0], (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(eq.tiles[1], (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(eq.tiles[2], (std::vector<std::uint32_t>{5, 6}));
}

TEST(Repartition, TermCostModelRemembersAndDefaults) {
  TermCostModel model;
  EXPECT_TRUE(model.empty());
  Bits128 a, b, c, unseen;
  a.set(0);
  b.set(1);
  c.set(2);
  unseen.set(3);
  model.update({a, b, c}, {10, 20, 60});
  EXPECT_FALSE(model.empty());
  EXPECT_EQ(model.estimate(a), 10u);
  EXPECT_EQ(model.estimate(b), 20u);
  EXPECT_EQ(model.estimate(c), 60u);
  // Unseen keys get the mean measured cost (30), never 0.
  EXPECT_EQ(model.estimate(unseen), 30u);
  // A new generation replaces the old one.
  model.update({a, unseen}, {8, 2});
  EXPECT_EQ(model.estimate(a), 8u);
  EXPECT_EQ(model.estimate(unseen), 2u);
  EXPECT_EQ(model.estimate(b), 5u);  // new mean
}

TEST(Repartition, TermCostModelAllZeroCostsStayPositive) {
  TermCostModel model;
  Bits128 a, b;
  a.set(4);
  b.set(5);
  model.update({a, b}, {0, 0});
  // Estimates are clamped >= 1 so LPT never sees an all-zero packing.
  EXPECT_GE(model.estimate(a), 1u);
  EXPECT_GE(model.estimate(b), 1u);
}

TEST(Repartition, TermCostModelIgnoresTheOrderOfItsSamples) {
  // The keys stay in the order given (the gathered order); the estimates,
  // the default included, must not depend on it.
  std::vector<Bits128> keys;
  std::vector<std::uint64_t> costs;
  for (int i = 0; i < 40; ++i) {
    Bits128 k;
    k.set(i);
    k.set((7 * i + 3) % 64);
    keys.push_back(k);
    costs.push_back(static_cast<std::uint64_t>(1 + (i * 37) % 11));
  }
  std::vector<Bits128> revKeys(keys.rbegin(), keys.rend());
  std::vector<std::uint64_t> revCosts(costs.rbegin(), costs.rend());
  TermCostModel fwd, rev;
  fwd.update(keys, costs);
  rev.update(revKeys, revCosts);
  EXPECT_EQ(fwd.keys(), keys);
  EXPECT_EQ(rev.keys(), revKeys);
  EXPECT_EQ(fwd.defaultCost(), rev.defaultCost());
  Bits128 unseen;
  unseen.set(100);
  for (const Bits128& k : keys) EXPECT_EQ(fwd.estimate(k), rev.estimate(k));
  EXPECT_EQ(fwd.estimate(unseen), rev.estimate(unseen));
}

TEST(Repartition, TermCostModelRejectsDuplicateKeys) {
  // A set holds each sample once, in update() and in restore() alike.
  Bits128 a, b;
  a.set(1);
  b.set(2);
  TermCostModel model;
  EXPECT_THROW(model.update({a, b, a}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(model.restore({b, a, b}, {1, 2, 3}, 2), std::invalid_argument);
  EXPECT_THROW(model.restore({a, b}, {1}, 2), std::invalid_argument);
  EXPECT_THROW(model.restore({a, b}, {1, 2}, 0), std::invalid_argument);
  // Keys need not be ascending: a generation restores in the order saved.
  model.restore({b, a}, {5, 9}, 7);
  EXPECT_EQ(model.estimate(a), 9u);
  EXPECT_EQ(model.estimate(b), 5u);
}

TEST(Repartition, DefaultEstimatesDealEqualTilesEvenly) {
  // Before the first measurement every sample costs 1, so Stage 3's one
  // packing deals equal tiles out evenly: rank tile counts differ by at
  // most one, and the short tail tile goes to a lightest rank.
  const TermCostModel empty;
  ASSERT_TRUE(empty.empty());
  const std::size_t nSamples = 10 * 64 + 17, tileSz = 64;
  std::vector<std::uint64_t> tileCosts((nSamples + tileSz - 1) / tileSz, 0);
  Bits128 x;
  for (std::size_t i = 0; i < nSamples; ++i) tileCosts[i / tileSz] += empty.estimate(x);
  const RankPartition part = partitionTilesByCost(tileCosts, 4);
  expectValidPartition(part, tileCosts.size(), 4);
  for (const auto& tiles : part.tiles) {
    EXPECT_GE(tiles.size(), 2u);
    EXPECT_LE(tiles.size(), 3u);
  }
  const auto [lo, hi] = std::minmax_element(part.plannedCost.begin(), part.plannedCost.end());
  EXPECT_LE(*hi - *lo, tileSz);
}
