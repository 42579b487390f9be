#pragma once

#include "nn/decode_state.hpp"
#include "nn/modules.hpp"

namespace nnqs::nn {

/// Masked (causal) multi-head self-attention, the core of the paper's
/// amplitude transformer (Fig. 2).  Input/output [B*L, D]; B inferred from
/// the row count and the fixed sequence length.
class CausalSelfAttention : public Module {
 public:
  CausalSelfAttention(Index dModel, Index nHeads, Index seqLen, Rng& rng,
                      std::string name);

  using Module::forward;
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>& out) override;

  /// Incremental decode: x = [B, D] is one new token per row at position
  /// `state.len` (0-based).  Appends this token's K/V to layer `layer`'s
  /// slice of the state's KV arena and attends its query against positions
  /// 0..pos, i.e. the single new row of the causal attention matrix — run on
  /// the kernel backend selected by `state.kernel` (src/nn/kernels/).
  /// Arithmetic mirrors forward() row `pos` exactly under every backend, so
  /// full-forward and decode paths agree bit for bit.
  ///
  /// Zero-allocation contract: `out` [B, D] is caller storage and the qkv /
  /// context scratch is carved from `state.ws`, so a warm step touches no
  /// heap (counts as an inference forward; invalidates the backward cache).
  void decodeStep(const Real* x, Index batch, DecodeState& state, Index layer,
                  Real* out);

  /// Sequence length of the next forward call (sampling uses growing
  /// prefix windows; the causal mask keeps shorter windows consistent).
  /// forward/forwardTape throw std::invalid_argument when their row count is
  /// not a whole number of windows.
  void setWindow(Index w) { window_ = w; }

  /// Tile-recompute record: qkv activations, normalized attention weights
  /// and the projection input all live on the caller's tape; dQkv is carved
  /// from the same tape in backwardTape and the kernels' per-thread scratch
  /// is reused across calls, so a warm tile performs zero heap allocations.
  struct TapeFrame {
    Linear::TapeFrame qkv;
    Linear::TapeFrame proj;
    const Real* qkvOut = nullptr;  ///< [B*L, 3D]: q | k | v per row
    Real* attn = nullptr;          ///< [B, heads, L, L] row-softmaxed weights
    Index batch = 0;
    Index window = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows);
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  /// Decode-path cache invalidation of this module and its Linears.
  /// Write-free when already clear, so pre-invalidated concurrent inference
  /// tiles make no shared writes (see TransformerAR::evaluateDecode).
  void invalidate();

 private:
  void invalidateBecause(const char* why);
  /// Samples in `rows` rows of the current window (throws when ragged).
  [[nodiscard]] Index batchOf(Index rows) const;

  std::string name_;
  Index d_, heads_, headDim_, seqLen_;
  Index window_;
  Linear qkv_;   ///< D -> 3D
  Linear proj_;  ///< D -> D
  // Caches for backward (invalidated by any inference forward, like the
  // row-wise modules).
  Tensor cachedQkv_;   ///< [B*L, 3D]
  Tensor cachedAttn_;  ///< [B, heads, L, L] row-softmaxed weights
  Index cachedBatch_ = 0;
  Index cachedWindow_ = 0;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

}  // namespace nnqs::nn
