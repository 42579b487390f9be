#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/workspace.hpp"

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

/// Caller-owned activation store of the tiled-recompute gradient path: one
/// bump-carve arena (nn::Workspace) holding a single tile's forward
/// activations plus its backward scratch.  The tile loop resets the tape
/// between tiles, so peak training activation memory is the high-water mark
/// of ONE tile — O(tile * L * d) — independent of the batch size, and a warm
/// tile (same shapes as the last) carves without touching the heap.
///
/// Recording convention: each module's forwardTape() carves its outputs (and
/// any backward caches, e.g. LayerNorm's xhat/invStd) from the tape and
/// stores the span pointers in a caller-held per-module frame struct;
/// backwardTape() consumes the frame.  Spans stay valid until the next
/// reset() — in particular a module may record its *input* span zero-copy,
/// because that span is the previous module's tape-carved output.  Each leaf
/// frame also stores the tape's generation (its reset count), and
/// backwardTape throws StaleTapeError when it no longer matches.
class Tape {
 public:
  /// Drop every recorded span (start the next tile's carve cycle).
  void reset() {
    ws_.reset();
    ++generation_;
  }
  /// Reset count, starting at 1 so a default frame (generation 0) never
  /// matches.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Pre-size the arena for `n` more Reals; only valid directly after
  /// reset(), like Workspace::reserve.
  void reserve(Index n) { ws_.reserve(n); }
  /// Carve `n` uninitialized Reals, 64-byte aligned, valid until reset().
  Real* alloc(Index n) { return ws_.alloc(n); }
  /// Arena accounting: highWater is the peak Reals live in any one tile —
  /// the "peak activation memory" number BM_BackwardTiled reports.
  [[nodiscard]] const Workspace::Stats& stats() const { return ws_.stats(); }

 private:
  Workspace ws_;
  std::uint64_t generation_ = 1;
};

}  // namespace nnqs::nn
