#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "nn/kernels/kernels.hpp"

namespace nnqs::nn {

/// Reusable scratch arena for the per-step activation buffers of the
/// incremental-decode path and, inside nn::Tape, for the tape forward and
/// backward (teacher-forced evaluate() and the training step).  A Workspace
/// carves uninitialized, 64-byte-aligned spans out of one hugepage-advised
/// block (the same backing store as the DecodeState KV arena), so a warm
/// steady-state sweep performs zero heap allocations.
///
/// Lifecycle: reset() starts a carve cycle; alloc() bump-carves spans that
/// stay valid until the next reset().  Growth is capacity-doubling in spirit
/// but respects live spans: mid-cycle overflow goes to fresh side chunks (the
/// primary block never moves while its spans are live), and the next reset()
/// coalesces the high-water mark back into one primary block — after which
/// same-sized cycles never allocate again.
class Workspace {
 public:
  /// Start a new carve cycle: every span from the previous cycle is dead.
  void reset();

  /// Ensure the primary block can serve `n` more Reals without overflowing
  /// into side chunks.  Only valid directly after reset() (nothing carved
  /// yet), where growing the primary block cannot invalidate live spans.
  void reserve(Index n);

  /// Carve `n` uninitialized Reals, 64-byte aligned.
  Real* alloc(Index n);

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
};

}  // namespace nnqs::nn
