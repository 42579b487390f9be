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
  index_.assign(samples);
  costs_ = costs;
  const std::uint64_t total = std::accumulate(costs.begin(), costs.end(), std::uint64_t{0});
  defaultCost_ = samples.empty()
                     ? 1
                     : std::max<std::uint64_t>(1, total / samples.size());
}

void TermCostModel::restore(const std::vector<Bits128>& keys,
                            std::vector<std::uint64_t> costs,
                            std::uint64_t defaultCost) {
  if (keys.size() != costs.size())
    throw std::invalid_argument("TermCostModel::restore: size mismatch");
  if (defaultCost < 1)
    throw std::invalid_argument("TermCostModel::restore: defaultCost must be >= 1");
  index_.assign(keys);
  costs_ = std::move(costs);
  defaultCost_ = defaultCost;
}

std::uint64_t TermCostModel::estimate(const Bits128& sample) const {
  const std::int32_t pos = index_.find(sample);
  if (pos == SampleIndex::kNone) return defaultCost_;
  return std::max<std::uint64_t>(1, costs_[static_cast<std::size_t>(pos)]);
}

}  // namespace nnqs::vmc
