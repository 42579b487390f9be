#pragma once

#include "nn/decode_state.hpp"
#include "nn/modules.hpp"

namespace nnqs::nn {

/// Masked (causal) multi-head self-attention, the core of the paper's
/// amplitude transformer (Fig. 2).  Input/output [B*L, D]; B inferred from
/// the row count and the window length L.
class CausalSelfAttention {
 public:
  CausalSelfAttention(Index dModel, Index nHeads, Rng& rng, std::string name);

  void collectParameters(std::vector<Parameter*>& out);

  /// Incremental decode: x = [B, D] is one new token per row at position
  /// `state.len` (0-based).  Appends this token's K/V to layer `layer`'s
  /// slice of the state's KV arena and attends its query against positions
  /// 0..pos, i.e. the single new row of the causal attention matrix — run on
  /// the kernel backend selected by `state.kernel` (src/nn/kernels/).
  /// Arithmetic mirrors forwardTape() row `pos` exactly under every backend,
  /// so the tape and decode paths agree bit for bit.
  ///
  /// Zero-allocation contract: `out` [B, D] is caller storage and the qkv /
  /// context scratch is carved from `state.ws`, so a warm step touches no
  /// heap.
  void decodeStep(const Real* x, Index batch, DecodeState& state, Index layer,
                  Real* out) const;

  /// Tape record of x = [B*window, D]: B sequences of `window` positions
  /// each (throws std::invalid_argument when the row count is not a whole
  /// number of windows).  The qkv activations, normalized attention weights
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
    std::uint64_t generation = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          Index window,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

 private:
  std::string name_;
  Index d_, heads_, headDim_;
  Linear qkv_;   ///< D -> 3D
  Linear proj_;  ///< D -> D
};

}  // namespace nnqs::nn
