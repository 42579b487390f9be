#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "nn/kernels/kernels.hpp"

namespace nnqs::nn {

/// Forwards compute outputs and record nothing; gradients are recorded on a
/// caller-owned Tape (forwardTape/backwardTape) and nowhere else.  This
/// one-value enum exists only as the last argument of QiankunNet::evaluate,
/// which the perfbench harness spells out.
enum class GradMode {
  kInference,
};

/// Thrown by a backwardTape whose frame was not recorded on the tape's
/// current generation: either no forwardTape filled it, or the tape was
/// reset since, so its spans point into reused arena memory.  Derives from
/// std::logic_error: it is a caller bug, not a data error.
class StaleTapeError : public std::logic_error {
 public:
  explicit StaleTapeError(const std::string& module)
      : std::logic_error(module +
                         ": backwardTape frame was not recorded by forwardTape "
                         "since the last Tape::reset()") {}
};

/// The nn layer's one scratch arena: uninitialized, 64-byte-aligned spans
/// bump-carved from one hugepage-advised block (the same backing store as
/// the DecodeState KV arena).  It holds one tile's forward activations plus
/// its backward scratch on the tiled-recompute gradient path and in the
/// teacher-forced evaluate, and one step's activations on the incremental
/// decode path (DecodeState::ws).  The caller resets it between tiles (or
/// steps), so peak activation memory is the high-water mark of ONE tile —
/// O(tile * L * d) — independent of the batch size, and a warm cycle (same
/// shapes as the last) carves without touching the heap.
///
/// Lifecycle: reset() starts a carve cycle; alloc() carves spans that stay
/// valid until the next reset().  Mid-cycle overflow goes to fresh side
/// chunks (the primary block never moves while its spans are live), and the
/// next reset() coalesces the high-water mark back into one primary block —
/// after which same-sized cycles never allocate again.
///
/// Recording convention: each module's forwardTape() carves its outputs (and
/// any backward caches, e.g. LayerNorm's xhat/invStd) from the tape and
/// stores the span pointers in a caller-held per-module frame struct;
/// backwardTape() consumes the frame.  A module may record its *input* span
/// zero-copy, because that span is the previous module's tape-carved output.
/// Each leaf frame also stores the tape's generation (its reset count), and
/// backwardTape throws StaleTapeError when it no longer matches.
class Tape {
 public:
  /// Drop every carved span and start the next carve cycle.
  void reset();
  /// Reset count, starting at 1 so a default frame (generation 0) never
  /// matches.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Ensure the primary block can serve `n` more Reals without overflowing
  /// into side chunks.  Only valid directly after reset() (nothing carved
  /// yet), where growing the primary block cannot invalidate live spans.
  void reserve(Index n);
  /// Carve `n` uninitialized Reals, 64-byte aligned, valid until reset().
  Real* alloc(Index n);

  /// Arena accounting: highWater is the peak Reals live in any one cycle —
  /// the "peak activation memory" number BM_BackwardTiled reports.
  struct Stats {
    std::size_t capacity = 0;   ///< primary block size (Reals)
    std::size_t highWater = 0;  ///< max Reals carved in any cycle
    Index grows = 0;            ///< primary-block (re)allocations
    Index overflows = 0;        ///< mid-cycle side-chunk allocations
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  kernels::HugeBuffer block_;
  std::vector<kernels::HugeBuffer> overflow_;
  std::size_t used_ = 0;          ///< carved from block_
  std::size_t overflowUsed_ = 0;  ///< carved from the newest side chunk
  std::size_t cycle_ = 0;         ///< total carved this cycle
  Stats stats_;
  std::uint64_t generation_ = 1;
};

}  // namespace nnqs::nn
