#include "vmc/repartition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace nnqs::vmc {

RankPartition partitionTilesByCost(const std::vector<std::uint64_t>& tileCosts,
                                   int nRanks) {
  if (nRanks < 1)
    throw std::invalid_argument("partitionTilesByCost: nRanks must be >= 1");
  RankPartition part;
  part.tiles.resize(static_cast<std::size_t>(nRanks));
  part.plannedCost.assign(static_cast<std::size_t>(nRanks), 0);

  std::vector<std::uint32_t> order(tileCosts.size());
  std::iota(order.begin(), order.end(), 0u);
  // LPT: heaviest first; equal-cost tiles keep ascending-id order so the
  // packing is independent of sort implementation details.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return tileCosts[a] > tileCosts[b];
                   });
  for (std::uint32_t tile : order) {
    std::size_t lightest = 0;
    for (std::size_t r = 1; r < part.plannedCost.size(); ++r)
      if (part.plannedCost[r] < part.plannedCost[lightest]) lightest = r;
    part.tiles[lightest].push_back(tile);
    part.plannedCost[lightest] += tileCosts[tile];
  }
  for (auto& t : part.tiles) std::sort(t.begin(), t.end());
  return part;
}

RankPartition partitionTilesEqual(std::size_t nTiles, int nRanks) {
  if (nRanks < 1)
    throw std::invalid_argument("partitionTilesEqual: nRanks must be >= 1");
  RankPartition part;
  part.tiles.resize(static_cast<std::size_t>(nRanks));
  part.plannedCost.assign(static_cast<std::size_t>(nRanks), 0);
  const auto ranks = static_cast<std::size_t>(nRanks);
  // First (nTiles % nRanks) ranks get one extra tile, like the classic
  // block distribution.
  const std::size_t base = nTiles / ranks, extra = nTiles % ranks;
  std::size_t next = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    const std::size_t count = base + (r < extra ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i)
      part.tiles[r].push_back(static_cast<std::uint32_t>(next++));
    part.plannedCost[r] = count;  // cost model: one unit per tile
  }
  return part;
}

std::vector<std::uint64_t> realizedRankCosts(
    const RankPartition& partition,
    const std::vector<std::uint64_t>& tileCosts) {
  std::vector<std::uint64_t> costs(partition.tiles.size(), 0);
  for (std::size_t r = 0; r < partition.tiles.size(); ++r)
    for (std::uint32_t tile : partition.tiles[r])
      costs[r] += tileCosts[tile];
  return costs;
}

void TermCostModel::update(const std::vector<Bits128>& samples,
                           const std::vector<std::uint64_t>& costs) {
  if (samples.size() != costs.size())
    throw std::invalid_argument("TermCostModel::update: size mismatch");
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return samples[a] < samples[b];
  });
  keys_.resize(samples.size());
  costs_.resize(samples.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    keys_[i] = samples[order[i]];
    costs_[i] = costs[order[i]];
    total += costs_[i];
  }
  defaultCost_ = samples.empty()
                     ? 1
                     : std::max<std::uint64_t>(1, total / samples.size());
}

void TermCostModel::restore(std::vector<Bits128> keys,
                            std::vector<std::uint64_t> costs,
                            std::uint64_t defaultCost) {
  if (keys.size() != costs.size())
    throw std::invalid_argument("TermCostModel::restore: size mismatch");
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (!(keys[i - 1] < keys[i]))
      throw std::invalid_argument("TermCostModel::restore: keys not ascending");
  if (defaultCost < 1)
    throw std::invalid_argument("TermCostModel::restore: defaultCost must be >= 1");
  keys_ = std::move(keys);
  costs_ = std::move(costs);
  defaultCost_ = defaultCost;
}

std::uint64_t TermCostModel::estimate(const Bits128& sample) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), sample);
  if (it == keys_.end() || !(*it == sample)) return defaultCost_;
  return std::max<std::uint64_t>(
      1, costs_[static_cast<std::size_t>(it - keys_.begin())]);
}

}  // namespace nnqs::vmc
