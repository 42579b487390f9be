#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

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
  /// ln1 — so no separate residual sweep ever runs on the decode path.  It
  /// makes the module calls forwardTape makes, on their raw-buffer forms,
  /// with every buffer carved from `state.ws`; a warm step touches no heap.
  void decodeStep(const Real* a, const Real* r, DecodeState& state, Index layer,
                  const Real** aOut, const Real** rOut) const;

  /// Tape record of one block over x = [B*window, d] (see
  /// CausalSelfAttention::forwardTape): submodule frames plus the two
  /// residual streams (block input x, post-attention h) and ff1's output,
  /// all tape-resident.  GELU is a kernels::gelu call onto a tape carve, and
  /// its backward runs in place on ff2's dx.  Separate LayerNorms and
  /// explicit residual adds compute the same sums as the fused decode
  /// kernels, so the taped activations equal the decode path's bit for bit.
  struct TapeFrame {
    LayerNorm::TapeFrame ln1, ln2;
    CausalSelfAttention::TapeFrame attn;
    Linear::TapeFrame ff1, ff2;
    const Real* x = nullptr;   ///< block input [rows, d]
    const Real* h = nullptr;   ///< post-attention residual stream [rows, d]
    const Real* f1 = nullptr;  ///< ff1 output, the GELU input [rows, ffDim]
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          Index window,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

 private:
  Index d_, ffDim_;
  LayerNorm ln1_, ln2_;
  CausalSelfAttention attn_;
  Linear ff1_, ff2_;
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
  /// window (BOS first).  The frame is caller-owned and reused
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
  /// Returns the tile's logits [rows, 4] (tape-resident), computed on the
  /// `policy` kernels (all bit-identical).  Rows do not depend on the rest of
  /// the tile, so any tiling of a batch gives the same logits.  Throws
  /// std::invalid_argument when `window` is not in [1, seqLen].
  const Real* forwardTape(Tape& tape, TapeFrame& f, const int* tokens,
                          Index rows, Index window,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  /// Backward through the recorded tile.  Every parameter gradient is an
  /// ascending-row serial fold, so ascending-tile calls are bit-identical to
  /// one call over the whole batch.
  void backwardTape(Tape& tape, const TapeFrame& f, const Real* dLogits);
  /// Reals one sample of `window` positions carves from the tape over
  /// forwardTape + backwardTape (64-byte alignment slack aside): a function
  /// of the shape alone, which sizes the training step's tiles to
  /// kGradTapeBudgetBytes.
  [[nodiscard]] Index tapeRealsPerSample(Index window) const;

  /// One thread's scratch of evaluateTiled: the tape its tiles carve from
  /// and the frame they record into.  Both keep their capacity across tiles
  /// and calls, so a warm evaluation performs zero heap allocations.
  struct EvalTape {
    Tape tape;
    TapeFrame frame;
  };

  /// Teacher-forced batched evaluation: the logits of `batch` known token
  /// windows (`tokens` flattened [batch, window], BOS first), computed by
  /// forwardTape in tiles of `tileRows` samples, each on a freshly reset
  /// tape.  `sink(t0, tb, logits)` receives the [tb * window, 4] logits of
  /// samples [t0, t0 + tb), valid until that tape's next reset.  Throws
  /// std::invalid_argument, before any tile runs, for a token count other
  /// than batch * window, a window outside [1, seqLen] or tileRows < 1.
  ///
  /// Under kThreaded/kAuto (with OpenMP, > 1 thread and > 1 tile) the
  /// independent tiles run in parallel, one EvalTape per thread (`tapes`
  /// grows to the thread count once), each on the non-forking kSimd
  /// kernels; the sink then sees concurrent calls for different tiles.  The
  /// team is the default size: a num_threads clause varying per call would
  /// make the runtime resize its pool, orphaning the kernels' thread_local
  /// scratch.  Other policies run the tiles in order on tapes[0].  Rows are
  /// independent in the forward, so every tiling and schedule gives the
  /// same bits.  The network is only read: several threads may run
  /// evaluateTiled at once, each on its own tapes.
  template <typename Sink>
  void evaluateTiled(std::vector<EvalTape>& tapes, const std::vector<int>& tokens,
                     Index batch, Index window, Index tileRows,
                     kernels::KernelPolicy kernel, Sink&& sink) const {
    if (static_cast<Index>(tokens.size()) != batch * window)
      throw std::invalid_argument("TransformerAR::evaluateTiled: tokens/batch/window mismatch");
    checkWindow(window);
    if (tileRows <= 0)
      throw std::invalid_argument("TransformerAR::evaluateTiled: tileRows must be positive");
    const Index nTiles = (batch + tileRows - 1) / tileRows;
    auto runTile = [&](EvalTape& et, Index t, kernels::KernelPolicy tileKernel) {
      const Index t0 = t * tileRows;
      const Index tb = std::min(tileRows, batch - t0);
      et.tape.reset();
      sink(t0, tb,
           forwardTape(et.tape, et.frame, tokens.data() + t0 * window, tb * window,
                       window, tileKernel));
    };
    if (tapes.empty()) tapes.resize(1);
#ifdef _OPENMP
    const auto maxThreads = static_cast<Index>(omp_get_max_threads());
    if ((kernel == kernels::KernelPolicy::kThreaded ||
         kernel == kernels::KernelPolicy::kAuto) &&
        maxThreads > 1 && nTiles > 1) {
      if (static_cast<Index>(tapes.size()) < maxThreads)
        tapes.resize(static_cast<std::size_t>(maxThreads));
#pragma omp parallel for schedule(static)
      for (Index t = 0; t < nTiles; ++t)
        runTile(tapes[static_cast<std::size_t>(omp_get_thread_num())], t,
                kernels::KernelPolicy::kSimd);
      return;
    }
#endif
    for (Index t = 0; t < nTiles; ++t) runTile(tapes.front(), t, kernel);
  }

  /// Start a stateful incremental decode over `batch` rows (KV caches sized
  /// for the full sequence length), run on the given kernel backend.
  void beginDecode(DecodeState& state, Index batch,
                   kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto) const;
  /// Feed tokens[B] at position state.len and return the next-outcome logits
  /// [B, 4].  Bit-identical to the last position of forwardTape() over the
  /// same prefixes.  Advances state.len.  The logits, like every activation
  /// of the step, are carved from the state's tape (`state.ws`), valid until
  /// the next step: a warm step performs zero heap allocations.
  const Real* decodeStep(DecodeState& state, const std::vector<int>& tokens) const;

  static constexpr int kVocab = 5;
  static constexpr int kBos = 4;
  static constexpr int kOutcomes = 4;
  /// Tape bytes one default training-step tile may carve
  /// (QiankunNet::evaluateGrad sizes its amplitude and phase tiles to it
  /// separately; inference reuses them: evaluate the amplitude tile,
  /// phases the phase tile).  The amplitude net's forward+backward runs
  /// fastest with 1–10 MiB of tape per tile, and ~1.5x slower at the ~50 MiB
  /// of a 256-sample tile; the phase MLP's weight-gradient GEMMs reload dW
  /// per tile and slow down below ~64 samples.  8 MiB keeps both fast.
  static constexpr Index kGradTapeBudgetBytes = Index{8} << 20;

 private:
  /// Throws std::invalid_argument unless 1 <= window <= seqLen (the position
  /// table has seqLen rows).
  void checkWindow(Index window) const;

  Index seqLen_, d_, heads_;
  Embedding embed_;
  std::vector<DecoderBlock> blocks_;
  LayerNorm lnFinal_;
  Linear head_;
};

/// Phase sub-network: an MLP phi(x) on the +-1 encoded qubit string,
/// [Linear, tanh] x nHidden + Linear(-> 1).  It has one forward, the tape
/// forward: training records it for the backward, inference (QiankunNet::
/// phases, evaluate and the serving slots) runs it alone.
class PhaseMlp {
 public:
  PhaseMlp(Index nQubits, Index hidden, Index nHidden, Rng& rng);

  /// Tape record: one frame per Linear, caller-owned and reused across tiles
  /// (a warm tile records without heap allocations).  Each hidden layer's
  /// tanh runs in place on its Linear's tape output with kernels::tanh, so
  /// the next Linear records the tanh output as its input, which is all the
  /// backward needs (tanh' = 1 - a²).  Rows are independent, so any tiling
  /// gives the same phases, and every policy gives the same bits.  Returns
  /// the tile's phases [rows] (tape-resident).
  struct TapeFrame {
    std::vector<Linear::TapeFrame> linear;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  void backwardTape(Tape& tape, const TapeFrame& f, const Real* dPhase);
  /// Reals one sample carves from the tape over forwardTape + backwardTape
  /// (alignment slack aside), as TransformerAR::tapeRealsPerSample.
  [[nodiscard]] Index tapeRealsPerSample() const;

  void collectParameters(std::vector<Parameter*>& out);

 private:
  std::vector<Linear> linears_;  ///< nHidden tanh layers, then the output
};

}  // namespace nnqs::nn
