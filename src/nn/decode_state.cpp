#include "nn/decode_state.hpp"

#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace nnqs::nn {

void DecodeState::begin(Index b, Index L, Index d, Index layers,
                        kernels::KernelPolicy k) {
  const Index needCap = b > 0 ? b : 1;
  // Arena reuse across sweeps (see the header): same layout + enough slots
  // means no reallocation and no re-zeroing.
  const bool reuse =
      maxLen == L && dModel == d && nLayers == layers && capacity >= needCap &&
      arena.size() == static_cast<std::size_t>(layers * 2 * capacity * L * d);
  batch = b;
  len = 0;
  maxLen = L;
  dModel = d;
  nLayers = layers;
  kernel = k;
  if (!reuse) {
    capacity = needCap;
    arena.assignZero(static_cast<std::size_t>(nLayers * 2 * capacity * slotStride()));
  }
  rowSlot.resize(static_cast<std::size_t>(b));
  std::iota(rowSlot.begin(), rowSlot.end(), Index{0});
  freeSlots.clear();
  for (Index s = b; s < capacity; ++s) freeSlots.push_back(s);
  sweepStats = SweepStats{};
}

Index DecodeState::copySlot(Index dst, Index src) {
  Index copied = 0;
  const auto copy = [&copied](Real* to, const Real* from, Index n) {
    std::memcpy(to, from, static_cast<std::size_t>(n) * sizeof(Real));
    copied += n;
  };
  for (Index l = 0; l < nLayers; ++l) {
    // K is position-transposed: each feature row holds `len` live positions.
    for (Index t = 0; t < dModel; ++t)
      copy(kSlot(l, dst) + t * maxLen, kSlot(l, src) + t * maxLen, len);
    // V: live positions are one contiguous prefix.
    copy(vSlot(l, dst), vSlot(l, src), len * dModel);
  }
  return copied;
}

void DecodeState::growArena(Index neededFree) {
  Index newCap = capacity;
  const Index used = capacity - static_cast<Index>(freeSlots.size());
  while (newCap - used < neededFree) newCap *= 2;

  kernels::HugeBuffer next;
  next.assignZero(static_cast<std::size_t>(nLayers * 2 * newCap * slotStride()));
  // Block kv (layer kv / 2's K or V) of `capacity` slots moves whole to the
  // front of its `newCap`-slot block: slot ids and bytes stay as they were.
  const Index block = capacity * slotStride();
  for (Index kv = 0; kv < 2 * nLayers; ++kv)
    std::memcpy(next.data() + kv * newCap * slotStride(), arena.data() + kv * block,
                static_cast<std::size_t>(block) * sizeof(Real));
  for (Index s = capacity; s < newCap; ++s) freeSlots.push_back(s);
  arena.swap(next);
  capacity = newCap;
  ++sweepStats.grows;
}

void DecodeState::gather(const std::vector<Index>& rows) {
  const auto newBatch = static_cast<Index>(rows.size());
  for (Index r : rows)
    if (r < 0 || r >= batch)
      throw std::out_of_range("DecodeState::gather: row index out of range");

  gatherRefs_.assign(static_cast<std::size_t>(batch), 0);
  for (Index r : rows) ++gatherRefs_[static_cast<std::size_t>(r)];
  Index distinct = 0;
  for (Index b = 0; b < batch; ++b) {
    if (gatherRefs_[static_cast<std::size_t>(b)] == 0)
      freeSlots.push_back(rowSlot[static_cast<std::size_t>(b)]);  // pruned
    else
      ++distinct;
  }
  const Index dups = newBatch - distinct;
  if (static_cast<Index>(freeSlots.size()) < dups) growArena(dups);

  gatherSlots_.resize(static_cast<std::size_t>(newBatch));
  gatherTaken_.assign(static_cast<std::size_t>(batch), 0);
  Index rowsCopied = 0, realsCopied = 0;
  for (Index r = 0; r < newBatch; ++r) {
    const Index old = rows[static_cast<std::size_t>(r)];
    if (!gatherTaken_[static_cast<std::size_t>(old)]) {
      gatherTaken_[static_cast<std::size_t>(old)] = 1;  // remap, no bytes move
      gatherSlots_[static_cast<std::size_t>(r)] = rowSlot[static_cast<std::size_t>(old)];
    } else {
      const Index s = freeSlots.back();
      freeSlots.pop_back();
      realsCopied += copySlot(s, rowSlot[static_cast<std::size_t>(old)]);
      ++rowsCopied;
      gatherSlots_[static_cast<std::size_t>(r)] = s;
    }
  }
  rowSlot.swap(gatherSlots_);
  batch = newBatch;

  ++sweepStats.gathers;
  sweepStats.rowsCopied += rowsCopied;
  sweepStats.realsCopied += realsCopied;

  // Regression guard (ROADMAP "single-allocation KV cache"): the arena path
  // copies only duplicated rows, and only their live positions.  copySlot
  // counts what its memcpys move, so a reworked copy that touches
  // maxLen-sized blocks again trips this.
  assert(realsCopied == rowsCopied * 2 * nLayers * len * dModel);
}

void DecodeState::detachRows(Index lo, Index hi, std::vector<Index>& slotsOut) {
  if (lo < 0 || hi > batch || lo > hi)
    throw std::out_of_range("DecodeState::detachRows: range out of view");
  slotsOut.insert(slotsOut.end(), rowSlot.begin() + lo, rowSlot.begin() + hi);
  ++sweepStats.detaches;
  sweepStats.slotsDetached += hi - lo;
}

void DecodeState::shrinkView(Index keep) {
  if (keep < 0 || keep > batch)
    throw std::out_of_range("DecodeState::shrinkView: keep out of view");
  rowSlot.resize(static_cast<std::size_t>(keep));
  batch = keep;
}

void DecodeState::attachRows(const std::vector<Index>& slots, Index newLen) {
  rowSlot.assign(slots.begin(), slots.end());
  batch = static_cast<Index>(slots.size());
  len = newLen;
  ++sweepStats.attaches;
}

void DecodeState::releaseRows() {
  for (Index s : rowSlot) freeSlots.push_back(s);
  rowSlot.clear();
  batch = 0;
}

}  // namespace nnqs::nn
