#pragma once

#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/tape.hpp"

namespace nnqs::nn {

/// State of one stateful incremental-decode pass over the autoregressive
/// transformer: per-decoder-layer key/value caches, batch-major.
///
/// Full-forward sampling recomputes the whole prefix at every step, giving
/// O(L^2) token work per sweep; with a DecodeState each step computes only
/// the new token's activations and attends its query against the cached
/// keys/values (the standard KV-cache of transformer inference, which the
/// paper's batched autoregressive sampler depends on for throughput).
///
/// The batch dimension tracks the *live frontier* of the sampling quadtree:
/// when a node splits into up to 4 children or is pruned, `gather()`
/// re-indexes the cache rows so row b of the cache is always the prefix of
/// frontier node b.  Rows may be duplicated (splits) or dropped (prunes).
///
/// Storage is a single capacity-doubling **arena** of physical slots with a
/// row-index indirection (`rowSlot`): a gather that only permutes or prunes
/// rows is a pure index remap (no K/V bytes move), and only rows duplicated
/// by a split copy their cache — and then only the `len` live positions, not
/// the full `maxLen` capacity.  Per-slot layouts are chosen for the decode
/// kernels (src/nn/kernels/):
///   K: [dModel][maxLen]  — position-transposed, so a kernel scanning keys at
///      fixed feature t reads contiguously (SIMD across key positions);
///   V: [maxLen][dModel]  — position-major, so the context accumulation at
///      fixed position reads contiguously (SIMD across features).
struct DecodeState {
  Index batch = 0;     ///< live rows (sampling-tree frontier)
  Index len = 0;       ///< tokens decoded so far per row
  Index maxLen = 0;    ///< per-row capacity (sequence length)
  Index dModel = 0;
  Index nLayers = 0;
  Index capacity = 0;  ///< physical arena slots (>= batch, doubles on demand)
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;

  kernels::HugeBuffer arena;    ///< [nLayers][K|V][capacity] slot blocks
  std::vector<Index> rowSlot;   ///< [batch] live row -> arena slot (distinct)
  std::vector<Index> freeSlots; ///< unassigned slot ids

  /// The tape every per-step activation buffer, the logits included, is
  /// carved from: reset by each step, it persists across steps *and* across
  /// begin() calls, so a warm steady-state sweep performs zero heap
  /// allocations (tape.hpp).
  Tape ws;
  /// The token feed of each step (QiankunNet::stepConditionals writes it
  /// from the rows' prefix bits): persists like ws, so a warm sweep's steps
  /// re-use its capacity instead of allocating.
  std::vector<int> tokenScratch;

  /// Cumulative since begin(): gather/detach/attach accounting of one whole
  /// sweep, for regression tests (the difference across one gather() is that
  /// gather's work).  Split-copy traffic (gathers, rowsCopied, realsCopied:
  /// the arena path copies only duplicated rows and only their live
  /// positions, identical to the untiled sweep under any tiling) is kept
  /// apart from tile bookkeeping (detaches/attaches: index moves only, zero
  /// K/V bytes).
  struct SweepStats {
    Index gathers = 0;       ///< gather() calls
    Index rowsCopied = 0;    ///< summed duplicated-row slot copies
    Index realsCopied = 0;   ///< summed Real elements copied by splits
    Index grows = 0;         ///< summed capacity doublings
    Index detaches = 0;      ///< detachRows() calls (tile boundaries)
    Index attaches = 0;      ///< attachRows() calls (tile resumptions)
    Index slotsDetached = 0; ///< summed rows parked across tile boundaries
  };
  SweepStats sweepStats;

  [[nodiscard]] bool active() const { return nLayers > 0; }

  /// Elements per K (or V) slot.
  [[nodiscard]] Index slotStride() const { return maxLen * dModel; }
  /// Layer `layer`'s K block for `slot`: element (t, j) at [t * maxLen + j].
  [[nodiscard]] Real* kSlot(Index layer, Index slot) {
    return arena.data() + (layer * 2 * capacity + slot) * slotStride();
  }
  [[nodiscard]] const Real* kSlot(Index layer, Index slot) const {
    return arena.data() + (layer * 2 * capacity + slot) * slotStride();
  }
  /// Layer `layer`'s V block for `slot`: element (j, t) at [j * dModel + t].
  [[nodiscard]] Real* vSlot(Index layer, Index slot) {
    return arena.data() + ((layer * 2 + 1) * capacity + slot) * slotStride();
  }
  [[nodiscard]] const Real* vSlot(Index layer, Index slot) const {
    return arena.data() + ((layer * 2 + 1) * capacity + slot) * slotStride();
  }

  /// Start a fresh decode over `batch` rows of up to `maxLen` steps.  When
  /// the layout (maxLen, dModel, nLayers) matches the previous decode and the
  /// rows fit the existing capacity, the arena allocation is reused without
  /// re-zeroing: every K/V position a sweep reads is written earlier in that
  /// same sweep (appends fill 0..len-1 of every live row; split copies move
  /// only live positions), so stale contents are never observed and the
  /// fresh zero-fill would be pure cost.
  void begin(Index batch, Index maxLen, Index dModel, Index nLayers,
             kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto);

  /// Re-index the batch rows: new row r becomes a copy of old row rows[r].
  /// `rows` may repeat old rows (node splits) and omit old rows (prunes).
  /// The first occurrence of an old row keeps its slot (remap only); each
  /// further occurrence copies the `len` live positions into a free slot.
  void gather(const std::vector<Index>& rows);

  // --- Tile suspension (the BAS sweep engine's depth-first descent) --------
  //
  // A *detached* row keeps its arena slot and K/V bytes but leaves the live
  // view: the caller holds its slot id and re-attaches the rows later with
  // the length they had.  Detach and attach are index moves, zero K/V bytes
  // moved.  A grow copies every slot whole, so a parked slot keeps its id
  // and its bytes across arena growth, and a parked tile costs nothing until
  // it is resumed.

  /// Park view rows [lo, hi): append each row's slot to `slotsOut`.  The view
  /// itself is left untouched — detach the tail chunks, then shrinkView().
  void detachRows(Index lo, Index hi, std::vector<Index>& slotsOut);
  /// Drop view rows [keep, batch) from the view *without* freeing them —
  /// their slots must already be detached (or about to be abandoned).
  void shrinkView(Index keep);
  /// Resume a parked tile: the view becomes exactly `slots` at live length
  /// `newLen`.  The previous view must have been released, shrunk away or
  /// detached.
  void attachRows(const std::vector<Index>& slots, Index newLen);
  /// Free every slot of the current view (the rows' data is dead — e.g. the
  /// final sweep layer after its leaves were emitted) and empty the view.
  void releaseRows();

 private:
  /// Grow the arena until at least `neededFree` slots are free (amortized
  /// O(1) per gather): each of the 2 * nLayers old [capacity] slot blocks
  /// moves whole to the front of its new block, so every slot, live, parked
  /// or free, keeps its id and its bytes.
  void growArena(Index neededFree);
  /// Copy slot `src`'s `len` live positions (all layers) into `dst`; returns
  /// the number of Real elements its copies moved.
  Index copySlot(Index dst, Index src);

  // Persistent gather() scratch (ref counts, new slot map, first-occurrence
  // marks): members so a warm sweep's gathers allocate nothing.
  std::vector<Index> gatherRefs_;
  std::vector<Index> gatherSlots_;
  std::vector<char> gatherTaken_;
};

}  // namespace nnqs::nn
