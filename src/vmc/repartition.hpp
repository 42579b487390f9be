#pragma once

// Term-count-balanced rank partitioning of the gathered sample set.
//
// The Fugaku NNQS study (PAPERS.md, arXiv:2506.23809) identifies rank-level
// load imbalance from uneven per-sample term counts as the wall at scale:
// equal-*sample* chunks of S carry wildly unequal local-energy work (the
// batched engine measures a ~17x per-tile term-count spread at C2 scale).
// The batched engine's dynamic tile scheduling solves the intra-rank half;
// this header is the inter-rank half: split next iteration's Stage-3 chunks
// by *measured* term count instead of sample count.
//
// Pieces:
//  - TermCostModel: remembers each sample's realized term count from the
//    last iteration it was evaluated (sample sets overlap heavily across
//    iterations once the ansatz concentrates); unseen samples get the mean
//    measured cost.
//  - partitionTilesByCost: deterministic greedy bin-packing (LPT) of
//    fixed-size sample tiles into ranks by estimated cost.
//  - partitionTilesEqual: the equal-count reference split (contiguous tile
//    blocks), the pre-balancing baseline.
//
// Every rank computes the partition independently from identical gathered
// inputs, so no extra coordination round is needed — determinism here IS the
// correctness contract (ties broken by tile index, then by rank index).

#include <cstdint>
#include <vector>

#include "common/bits.hpp"

namespace nnqs::vmc {

/// Assignment of sample tiles to ranks.  `tiles[r]` is rank r's tile ids in
/// ascending order (so a rank's chunk preserves the gathered sample order);
/// `plannedCost[r]` is the summed estimated cost of that assignment.
struct RankPartition {
  std::vector<std::vector<std::uint32_t>> tiles;
  std::vector<std::uint64_t> plannedCost;
};

/// Greedy bin-packing (longest-processing-time): tiles in descending cost
/// order (ties by ascending tile id) are each assigned to the currently
/// lightest rank (ties by ascending rank id).  Deterministic; within a rank
/// the tile list is re-sorted ascending.
RankPartition partitionTilesByCost(const std::vector<std::uint64_t>& tileCosts,
                                   int nRanks);

/// Equal-count reference split: contiguous blocks of ceil/floor(nTiles /
/// nRanks) tiles per rank, in rank order.
RankPartition partitionTilesEqual(std::size_t nTiles, int nRanks);

/// Per-rank *realized* cost of a partition, given this iteration's measured
/// per-tile term counts.
std::vector<std::uint64_t> realizedRankCosts(
    const RankPartition& partition, const std::vector<std::uint64_t>& tileCosts);

/// Sample -> measured-term-cost memory across iterations.  update() replaces
/// the stored generation with (keys, costs) of the samples just evaluated;
/// estimate() returns the stored cost for a known key and the mean stored
/// cost (>= 1) for an unseen one, so brand-new samples neither vanish from
/// nor dominate the packing.
class TermCostModel {
 public:
  /// Record one generation of measured costs.  `samples` need not be sorted;
  /// they must be unique (they come from the gathered unique set S).
  void update(const std::vector<Bits128>& samples,
              const std::vector<std::uint64_t>& costs);
  [[nodiscard]] std::uint64_t estimate(const Bits128& sample) const;
  [[nodiscard]] bool empty() const { return keys_.empty(); }

  // Checkpoint access (the VMC driver serializes the model so a resumed run
  // computes the same Stage-3 partition as the uninterrupted one from its
  // first iteration on).
  [[nodiscard]] const std::vector<Bits128>& keys() const { return keys_; }
  [[nodiscard]] const std::vector<std::uint64_t>& costs() const { return costs_; }
  [[nodiscard]] std::uint64_t defaultCost() const { return defaultCost_; }
  /// Replace the stored generation wholesale.  `keys` must be strictly
  /// ascending (the invariant update() establishes) and sized like `costs`.
  void restore(std::vector<Bits128> keys, std::vector<std::uint64_t> costs,
               std::uint64_t defaultCost);

 private:
  std::vector<Bits128> keys_;  ///< ascending
  std::vector<std::uint64_t> costs_;
  std::uint64_t defaultCost_ = 1;
};

}  // namespace nnqs::vmc
