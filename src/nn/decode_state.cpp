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
  slotDetachedLen_.assign(static_cast<std::size_t>(capacity), 0);
  sweepStats = SweepStats{};
}

Index DecodeState::copySlotInto(kernels::HugeBuffer& dstBuf, Index dstCap,
                                Index dst, Index src, Index length) {
  const std::size_t liveK = static_cast<std::size_t>(length) * sizeof(Real);
  const std::size_t liveV = static_cast<std::size_t>(length * dModel) * sizeof(Real);
  const Index ss = slotStride();
  Index copied = 0;
  for (Index l = 0; l < nLayers; ++l) {
    // K is position-transposed: each feature row holds `length` live positions.
    const Real* ks = kSlot(l, src);
    Real* kd = dstBuf.data() + (l * 2 * dstCap + dst) * ss;
    for (Index t = 0; t < dModel; ++t)
      std::memcpy(kd + t * maxLen, ks + t * maxLen, liveK);
    // V: live positions are one contiguous prefix.
    std::memcpy(dstBuf.data() + ((l * 2 + 1) * dstCap + dst) * ss, vSlot(l, src),
                liveV);
    copied += length * dModel + length * dModel;
  }
  return copied;
}

Index DecodeState::copySlot(Index dst, Index src) {
  return copySlotInto(arena, capacity, dst, src, len);
}

void DecodeState::growArena(Index neededFree, const std::vector<Index>& refs) {
  Index newCap = capacity;
  const Index used = capacity - static_cast<Index>(freeSlots.size());
  while (newCap - used < neededFree) newCap *= 2;

  kernels::HugeBuffer next;
  next.assignZero(static_cast<std::size_t>(nLayers * 2 * newCap * slotStride()));
  // Current-view rows: live prefix of `len` positions (pruned rows' slots are
  // already free and their data dead, so they are not copied).
  for (Index b = 0; b < batch; ++b) {
    if (refs[static_cast<std::size_t>(b)] == 0) continue;
    const Index slot = rowSlot[static_cast<std::size_t>(b)];
    copySlotInto(next, newCap, slot, slot, len);
  }
  // Detached (parked-tile) rows are live too, at their recorded lengths —
  // slot ids stay stable, so suspended frames resume untouched after a grow.
  for (Index slot = 0; slot < capacity; ++slot) {
    const Index dl = slotDetachedLen_[static_cast<std::size_t>(slot)];
    if (dl > 0) copySlotInto(next, newCap, slot, slot, dl);
  }
  for (Index s = capacity; s < newCap; ++s) freeSlots.push_back(s);
  arena.swap(next);
  capacity = newCap;
  slotDetachedLen_.resize(static_cast<std::size_t>(capacity), 0);
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
  if (static_cast<Index>(freeSlots.size()) < dups) growArena(dups, gatherRefs_);

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
  // copies only duplicated rows, and only their live positions — a reworked
  // copy that touches maxLen-sized blocks again would trip this.
  assert(realsCopied == rowsCopied * 2 * nLayers * len * dModel);
}

void DecodeState::detachRows(Index lo, Index hi, std::vector<Index>& slotsOut) {
  if (lo < 0 || hi > batch || lo > hi)
    throw std::out_of_range("DecodeState::detachRows: range out of view");
  for (Index r = lo; r < hi; ++r) {
    const Index slot = rowSlot[static_cast<std::size_t>(r)];
    slotDetachedLen_[static_cast<std::size_t>(slot)] = len;
    slotsOut.push_back(slot);
  }
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
  for (Index s : slots) slotDetachedLen_[static_cast<std::size_t>(s)] = 0;
  ++sweepStats.attaches;
}

void DecodeState::releaseRows() {
  for (Index s : rowSlot) freeSlots.push_back(s);
  rowSlot.clear();
  batch = 0;
}

Index DecodeState::detachedSlotCount() const {
  Index n = 0;
  for (const Index dl : slotDetachedLen_)
    if (dl > 0) ++n;
  return n;
}

}  // namespace nnqs::nn
