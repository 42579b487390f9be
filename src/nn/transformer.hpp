#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/attention.hpp"

namespace nnqs::nn {

/// Pre-LN decoder block: x += MHSA(LN(x)); x += FF(LN(x)).
class DecoderBlock {
 public:
  DecoderBlock(Index dModel, Index nHeads, Index ffDim, Rng& rng, std::string name);
  void collectParameters(std::vector<Parameter*>& out);

  /// Incremental decode of one token per row at position `state.len`,
  /// reading/extending layer `layer`'s slice of the KV arena.  The residual
  /// stream arrives *split* as x = a (+ r, nullable): the previous stage's
  /// residual add is deferred into this block's fused residual+LayerNorm
  /// kernel (ln1), and the block's own output leaves split the same way
  /// (*aOut = ff2 out, *rOut = post-attention residual) for the next block's
  /// ln1 — so no separate residual sweep ever runs on the decode path.  All
  /// buffers are carved from `state.ws`; a warm step touches no heap.
  void decodeStep(const Real* a, const Real* r, DecodeState& state, Index layer,
                  const Real** aOut, const Real** rOut) const;

  /// Tape record of one block over x = [B*window, d] (see
  /// CausalSelfAttention::forwardTape): submodule frames plus the two
  /// residual streams (block input x, post-attention h), all tape-resident.
  /// Separate LayerNorms and explicit residual adds compute the same sums
  /// as the fused decode kernels, so the taped activations equal the decode
  /// path's bit for bit.
  struct TapeFrame {
    LayerNorm::TapeFrame ln1, ln2;
    CausalSelfAttention::TapeFrame attn;
    Linear::TapeFrame ff1, ff2;
    Gelu::TapeFrame gelu;
    const Real* x = nullptr;  ///< block input [rows, d]
    const Real* h = nullptr;  ///< post-attention residual stream [rows, d]
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          Index window) const;
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

 private:
  Index d_, ffDim_;
  LayerNorm ln1_, ln2_;
  CausalSelfAttention attn_;
  Linear ff1_, ff2_;
  Gelu gelu_;
};

/// Stacked-decoder autoregressive amplitude network (paper Fig. 2, the
/// "Amplitude Sub-Network"): tokens -> logits over the 4 two-qubit outcomes
/// at every position.  Token vocabulary: 0..3 outcomes + BOS (=4).
class TransformerAR {
 public:
  TransformerAR(Index seqLen, Index dModel, Index nHeads, Index nLayers,
                Rng& rng);

  void collectParameters(std::vector<Parameter*>& out);

  /// Tape record of the whole amplitude net for one tile of rows
  /// (rows = tileBatch * window): `tokens` is a flattened [tileBatch, window]
  /// window (window <= seqLen, BOS first).  The frame is caller-owned and reused
  /// across tiles (the blocks vector keeps its capacity), so a warm tile
  /// records without heap allocations; every activation lives on `tape` and
  /// is released wholesale by the caller's Tape::reset().
  struct TapeFrame {
    std::vector<DecoderBlock::TapeFrame> blocks;
    LayerNorm::TapeFrame lnf;
    Linear::TapeFrame head;
    const int* tokens = nullptr;  ///< tile token window, caller-owned storage
    Index rows = 0;
    Index window = 0;
  };
  /// Returns the tile's logits [rows, 4] (tape-resident).  Rows do not
  /// depend on the rest of the tile, so any tiling of a batch gives the same
  /// logits.
  const Real* forwardTape(Tape& tape, TapeFrame& f, const int* tokens,
                          Index rows, Index window) const;
  /// Backward through the recorded tile.  Every parameter gradient is an
  /// ascending-row serial fold, so ascending-tile calls are bit-identical to
  /// one call over the whole batch.
  void backwardTape(Tape& tape, const TapeFrame& f, const Real* dLogits);
  /// Reals one sample of `window` positions carves from the tape over
  /// forwardTape + backwardTape (64-byte alignment slack aside): a function
  /// of the shape alone, which sizes the training step's tiles to
  /// kGradTapeBudgetBytes.
  [[nodiscard]] Index tapeRealsPerSample(Index window) const;

  /// Start a stateful incremental decode over `batch` rows (KV caches sized
  /// for the full sequence length), run on the given kernel backend.
  void beginDecode(DecodeState& state, Index batch,
                   kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto) const;
  /// Feed tokens[B] at position state.len and return the next-outcome logits
  /// [B, 4].  Bit-identical to the last position of forwardTape() over the
  /// same prefixes.  Advances state.len.  The returned tensor is `state.logits`
  /// (state-owned, overwritten by the next step): with every activation
  /// carved from the state's workspace, a warm step performs zero heap
  /// allocations.
  const Tensor& decodeStep(DecodeState& state, const std::vector<int>& tokens) const;

  /// Teacher-forced batched evaluation on the incremental-decode engine:
  /// `tokens` is the flattened [B, L'] input window exactly as forwardTape()
  /// takes it (BOS first), but instead of one O(B*L'^2)-activation full
  /// forward, each position is produced by decodeStep with the *known* next
  /// token per row.  After every step, `sink(row0, rows, s, logits)` receives
  /// the [rows, 4] logits of global rows [row0, row0+rows) at position s —
  /// bit-identical to the corresponding positions of forwardTape() (the
  /// decode contract), consumed in ascending (tile, s) order so callers can stream
  /// per-row reductions without materializing a [B, L', 4] buffer.
  ///
  /// The batch is chunked into `tileRows`-row tiles (<= 0 selects
  /// kEvalTileRows) swept depth-first, so the KV arena and workspace stay
  /// cache/memory-bounded independent of the batch size — evaluate() batches
  /// (every unique connected configuration of the local-energy estimator) are
  /// far larger than any sampling frontier.  nqs::BasSweepEngine applies the
  /// same depth-first tile pattern to the *sampling* frontier (where tiles
  /// split/prune as they descend, via DecodeState::detachRows/attachRows,
  /// instead of marching in lockstep as they do here).  All activations are carved from
  /// the state's workspace and the token feed lives in state.tokenScratch, so
  /// a warm evaluation performs zero heap allocations for any batch size.
  ///
  /// Tiles are fully independent row ranges, so under kThreaded/kAuto (with
  /// OpenMP and > 1 hardware thread) the tiles themselves are swept in
  /// parallel, one DecodeState per thread (state.aux), each running the
  /// single-threaded SIMD kernels — coarse-grained parallelism instead of
  /// forking inside every 256-row step.  Per-tile arithmetic is unchanged,
  /// so the bits stay identical; the sink must tolerate concurrent calls for
  /// *different* tiles (within a tile, calls arrive in ascending s on one
  /// thread).  Disjoint per-row outputs — the natural sink shape — need no
  /// synchronization.  The network itself is only read (const), so several
  /// threads may also run evaluateDecode at once, each on its own state.
  template <typename Sink>
  void evaluateDecode(DecodeState& state, const std::vector<int>& tokens,
                      Index batch, Index window, Index tileRows,
                      kernels::KernelPolicy kernel, Sink&& sink) const {
    if (static_cast<Index>(tokens.size()) != batch * window)
      throw std::invalid_argument("evaluateDecode: tokens/batch/window mismatch");
    if (window > seqLen_)
      throw std::invalid_argument("evaluateDecode: window exceeds sequence length");
    if (tileRows <= 0) tileRows = kEvalTileRows;

    auto sweepTile = [&](DecodeState& st, Index t0, Index tile,
                         kernels::KernelPolicy tileKernel) {
      const Index tb = std::min(tile, batch - t0);
      beginDecode(st, tb, tileKernel);
      st.tokenScratch.resize(static_cast<std::size_t>(tb));
      for (Index s = 0; s < window; ++s) {
        for (Index b = 0; b < tb; ++b)
          st.tokenScratch[static_cast<std::size_t>(b)] =
              tokens[static_cast<std::size_t>((t0 + b) * window + s)];
        const Tensor& logits = decodeStep(st, st.tokenScratch);
        sink(t0, tb, s, logits.data.data());
      }
    };

#ifdef _OPENMP
    const auto maxThreads = static_cast<Index>(omp_get_max_threads());
    if ((kernel == kernels::KernelPolicy::kThreaded ||
         kernel == kernels::KernelPolicy::kAuto) &&
        maxThreads > 1 && batch > tileRows) {
      // Shrink the tile (not below kMinEvalTileRows, where the per-step
      // GEMMs lose their efficiency) until the tile count covers the thread
      // pool — otherwise a batch of 2 tiles on a 16-thread host would pin 14
      // threads idle and evaluate *slower* than one intra-step-threaded
      // tile.  Deterministic in (batch, tileRows, thread count), so warm
      // sweeps keep hitting the same per-thread state shapes.
      const Index want =
          std::min(maxThreads, std::max<Index>(1, batch / kMinEvalTileRows));
      const Index tile = std::min(tileRows, (batch + want - 1) / want);
      const Index nTiles = (batch + tile - 1) / tile;
      // Default-size team (threads beyond the tile count simply get no
      // iterations): a num_threads clause varying per call would make the
      // OpenMP runtime grow/shrink its pool, orphaning the kernels'
      // thread_local scratch buffers.  aux is sized for any thread id the
      // schedule might use; states never handed a tile stay empty.
      while (static_cast<Index>(state.aux.size()) < maxThreads - 1)
        state.aux.emplace_back(std::make_unique<DecodeState>());
#pragma omp parallel for schedule(static)
      for (Index t = 0; t < nTiles; ++t) {
        const int tid = omp_get_thread_num();
        DecodeState& st =
            tid == 0 ? state : *state.aux[static_cast<std::size_t>(tid - 1)];
        sweepTile(st, t * tile, tile, kernels::KernelPolicy::kSimd);
      }
      return;
    }
#endif
    for (Index t0 = 0; t0 < batch; t0 += tileRows)
      sweepTile(state, t0, tileRows, kernel);
  }

  static constexpr int kVocab = 5;
  static constexpr int kBos = 4;
  static constexpr int kOutcomes = 4;
  /// Default evaluateDecode tile: big enough that the per-step GEMMs run at
  /// full micro-kernel efficiency, small enough that a tile's KV arena
  /// (2 layers * 2 * 256 * L * d) stays inside L2/L3 at the decode shapes.
  static constexpr Index kEvalTileRows = 256;
  /// Floor when the tile-parallel driver shrinks tiles to cover the thread
  /// pool: below this the per-step GEMMs are too short to amortize.
  static constexpr Index kMinEvalTileRows = 32;
  /// Tape bytes one default training-step tile may carve
  /// (QiankunNet::evaluateGrad sizes its amplitude and phase tiles to it
  /// separately).  The amplitude net's forward+backward runs fastest with
  /// 1–10 MiB of tape per tile, and ~1.5x slower at the ~50 MiB of a
  /// 256-sample tile; the phase MLP's weight-gradient GEMMs reload dW per
  /// tile and slow down below ~64 samples.  8 MiB keeps both fast.
  static constexpr Index kGradTapeBudgetBytes = Index{8} << 20;

 private:
  Index seqLen_, d_, heads_;
  Embedding embed_;
  std::vector<DecoderBlock> blocks_;
  LayerNorm lnFinal_;
  Linear head_;
};

/// Phase sub-network: an MLP phi(x) on the +-1 encoded qubit string,
/// [Linear, tanh] x nHidden + Linear(-> 1).
class PhaseMlp {
 public:
  PhaseMlp(Index nQubits, Index hidden, Index nHidden, Rng& rng);

  /// Raw-buffer inference: x [rows, nQubits] of +-1 (caller storage,
  /// possibly carved from `ws` itself), phases written to out[rows]; every
  /// intermediate activation is carved from `ws` inside the *caller's* carve
  /// cycle (no reset here).  Bit-identical to forwardTape() — the Linear
  /// layers run the same kernels::gemm and the tanh layers the same
  /// kernels::tanh — and
  /// performs zero heap allocations once `ws` is warm; the serving layer runs
  /// it concurrently from many worker threads.
  void forwardInto(Workspace& ws, const Real* x, Index rows, Real* out,
                   kernels::KernelPolicy policy) const;

  /// Tape record: one frame per Linear and per tanh, caller-owned and reused
  /// across tiles.  Returns the tile's phases [rows] (tape-resident).
  struct TapeFrame {
    std::vector<Linear::TapeFrame> linear;
    std::vector<TanhAct::TapeFrame> tanh;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows) const;
  void backwardTape(Tape& tape, const TapeFrame& f, const Real* dPhase);
  /// Reals one sample carves from the tape over forwardTape + backwardTape
  /// (alignment slack aside), as TransformerAR::tapeRealsPerSample.
  [[nodiscard]] Index tapeRealsPerSample() const;

  void collectParameters(std::vector<Parameter*>& out);

 private:
  std::vector<Linear> linears_;  ///< nHidden hidden layers, then the output
  std::vector<TanhAct> tanhs_;   ///< tanhs_[l] follows linears_[l]
};

}  // namespace nnqs::nn
