#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "exec/policy.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"

namespace nnqs::nqs {

/// Configuration of the QiankunNet wave-function ansatz (paper Fig. 2 and
/// §4.1 defaults: two decoders, d_model 16, 4 heads, 512-wide phase MLP).
struct QiankunNetConfig {
  int nQubits = 0;
  int nAlpha = 0;  ///< spin-up electrons (number conservation, Eq. 12)
  int nBeta = 0;
  Index dModel = 16;
  Index nHeads = 4;
  Index nDecoders = 2;
  Index phaseHidden = 512;
  Index phaseHiddenLayers = 2;
  std::uint64_t seed = 1234;
};

/// The first field of `cfg` the engine cannot represent, or nullptr when
/// there is none:
///  - nQubits even and in [2, 128] (one Bits128 holds a configuration);
///  - nAlpha and nBeta in [0, nQubits / 2] (more electrons than orbitals
///    mask every outcome of the first step);
///  - dModel in [1, 2^12], and nHeads >= 1 dividing it;
///  - nDecoders in [0, 2^10];
///  - phaseHidden in [1, 2^14] and phaseHiddenLayers in [0, 2^10].
/// The caps keep every weight's element count and the flat parameter store's
/// total far inside Index: a decoder block holds 12 dModel^2 + 13 dModel
/// parameters and a hidden phase layer phaseHidden^2 + phaseHidden, so the
/// total stays below 2^39.  QiankunNet's constructor throws
/// std::invalid_argument on such a config.
[[nodiscard]] const char* unrepresentableField(const QiankunNetConfig& cfg);

/// The parameters QiankunNet(cfg) holds (its parameterCount()), computed
/// without building it, for a config unrepresentableField accepts.
[[nodiscard]] Index parameterCount(const QiankunNetConfig& cfg);

/// QiankunNet: Psi(x) = |Psi(x)| e^{i phi(x)} with an autoregressive
/// transformer amplitude (two qubits = one spatial orbital per step, sampled
/// in reverse JW qubit order as in the paper) and an MLP phase.
class QiankunNet {
 public:
  /// Throws std::invalid_argument when unrepresentableField(cfg) names a
  /// field.  The modules draw their initial weights in construction order;
  /// the constructor then packs every parameter into the net's one value
  /// buffer and one gradient buffer, in parameters() order.
  explicit QiankunNet(const QiankunNetConfig& cfg);
  // The parameters point into the net's own buffers.
  QiankunNet(const QiankunNet&) = delete;
  QiankunNet& operator=(const QiankunNet&) = delete;

  [[nodiscard]] const QiankunNetConfig& config() const { return cfg_; }
  /// The amplitude sub-network, read-only (tests/oracle.hpp runs its tape
  /// forward as the reference the decode engine and evaluate() are checked
  /// against).
  [[nodiscard]] const nn::TransformerAR& amplitude() const { return amplitude_; }
  [[nodiscard]] int nSteps() const { return cfg_.nQubits / 2; }
  /// Spatial orbital sampled at step s (reverse order).
  [[nodiscard]] int orbitalOfStep(int s) const { return nSteps() - 1 - s; }
  /// Two-bit outcome of sample x at step s: bit0 = up qubit, bit1 = down.
  [[nodiscard]] int tokenOf(Bits128 x, int s) const {
    const int orb = orbitalOfStep(s);
    return (x.get(2 * orb) ? 1 : 0) | (x.get(2 * orb + 1) ? 2 : 0);
  }
  [[nodiscard]] Bits128 applyToken(Bits128 x, int s, int token) const {
    const int orb = orbitalOfStep(s);
    if (token & 1) x.set(2 * orb);
    if (token & 2) x.set(2 * orb + 1);
    return x;
  }

  /// Number-conservation mask (Eq. 12 plus the feasibility lower bound):
  /// outcome t is allowed at step s given the up/down counts used so far.
  [[nodiscard]] std::array<bool, 4> outcomeMask(int s, int nUpUsed, int nDownUsed) const;

  /// Start a stateful incremental decode over `batch` sampling-tree rows.
  /// `kernel` selects the decode-attention backend (src/nn/kernels/): the
  /// scalar reference, the AVX-512 / AVX2 SIMD kernel, or SIMD + OpenMP over
  /// (row, head) tiles — all bit-identical, so any choice samples the same.
  void beginDecode(nn::DecodeState& state, int batch,
                   nn::kernels::KernelPolicy kernel =
                       nn::kernels::KernelPolicy::kAuto) const;

  /// One incremental step of the masked, renormalized conditionals: writes
  /// pi(x_s | prefix) [B, 4] into `probs` for step s = state.len, with O(1)
  /// token work per step via the per-layer KV caches.  `prefixes[b]` is row
  /// b's prefix bits (the outcomes of steps 0..s-1, nothing else set): the
  /// step feeds tokenOf(prefixes[b], s-1), or BOS at s = 0, and masks with
  /// the prefix's electron counts (up: the even qubits' popcount, down: the
  /// odd ones').  Taking the output buffer lets the BAS inner loop reuse one
  /// vector across the whole sweep instead of allocating per step.
  void stepConditionals(nn::DecodeState& state, const std::vector<Bits128>& prefixes,
                        std::vector<Real>& probs) const;

  /// Configure evaluate()/psi()/phases() and evaluateGrad() from an
  /// ExecutionPolicy (exec/policy.hpp): kernel picks the inference kernel
  /// backend (bit-identical, so it only moves the wall clock); gradTileRows
  /// sizes both sub-networks' tape tiles, in inference and in the gradient
  /// (0 = engine default, negative = one tile spanning the batch).
  void setEvalPolicy(const exec::ExecutionPolicy& exec) {
    evalKernel_ = exec.kernel;
    gradTileRows_ = exec.gradTileRows;
  }

  /// ln|Psi| and phase for a batch of samples: the amplitude net's
  /// teacher-forced tape forward in tiles (TransformerAR::evaluateTiled, the
  /// tiles evaluateGrad's amplitude loop uses) plus the phase MLP, on the
  /// kernel selected by setEvalPolicy().  Records nothing: gradients come
  /// from evaluateGrad().
  /// The GradMode argument has a single value and is kept only so existing
  /// callers that spell it out still compile.
  void evaluate(const std::vector<Bits128>& samples, std::vector<Real>& logAmp,
                std::vector<Real>& phase,
                nn::GradMode mode = nn::GradMode::kInference);

  /// Phase-only inference: phi(x) per sample via the phase MLP, skipping the
  /// amplitude network entirely.  The complement of the fused BAS sweep,
  /// which produces ln|Psi| as a sampling by-product (SampleSet::logAmp) but
  /// never touches the phase MLP.  Runs the phase MLP's tape forward in
  /// evaluateGrad's phase tiles, on the tape evaluateGrad uses, so a warm
  /// call allocates nothing.
  void phases(const std::vector<Bits128>& samples, std::vector<Real>& phase);

  /// ln|Psi| sentinel for samples outside the number-conserving support
  /// (psiValue maps it to amplitude 0).  The fused sweep accumulates with
  /// the exact arithmetic of the evaluate() paths, including this sentinel,
  /// so fused and separate amplitudes are bit-identical.
  static constexpr Real kLogZeroAmp = -1e30;

  /// The single (ln|Psi|, phi) -> psi convention: zero amplitude outside the
  /// number-conserving support, |psi| = sqrt(pi) <= 1 so no overflow.  Every
  /// consumer of evaluate() output (psi(), the VMC Allgather records, the
  /// estimator helpers) goes through this instead of re-deriving it.
  [[nodiscard]] static Complex psiValue(Real logAmp, Real phase);

  /// Complex psi values (convenience; the evaluate() entry point + psiValue).
  std::vector<Complex> psi(const std::vector<Bits128>& samples);

  /// The training step: forward + backward over `samples` with the given
  /// per-sample loss seeds d/d(ln|Psi|) and d/d(phi), accumulating parameter
  /// gradients without ever materializing the full batch's activations.
  /// Two loops share one tape, the first tape of the net's own EvalSlot
  /// (evaluate() and phases() run on it too): one sweeps the amplitude
  /// transformer (teacher-forced forward, loss seeds, backward), then one
  /// the phase MLP, each in ascending tiles of its own size.  Each tile
  /// re-runs its forward onto the tape — only that tile's activations exist
  /// — backprops it and releases the tape, bounding peak training activation
  /// memory independent of the batch size.  Tile sizes (ExecutionPolicy::
  /// gradTileRows): 0, the default, gives each loop the largest tile whose
  /// tape fits TransformerAR::kGradTapeBudgetBytes (gradTapeRealsPerSample);
  /// a positive value forces both tiles; a negative value gives each loop
  /// one tile spanning the batch.
  ///
  /// Every tile geometry gives **bit-identical** gradients: forward
  /// activations are per-row batch-composition-independent, every
  /// per-parameter accumulation (GEMM accumulate=true ascending-k fold,
  /// LayerNorm ascending-row fold, embedding/bias ascending-row loops) is a
  /// strictly sequential ascending-row fold that tile boundaries merely
  /// partition, tiles are swept sequentially in ascending order, and the two
  /// loops touch disjoint parameter sets — the ordering IS the bit-identity
  /// mechanism, so tiles are never parallelized (threading stays inside the
  /// per-tile kernels).  A warm call (same shapes as the last) performs zero
  /// heap allocations: all per-tile storage lives on the slot's Tape arena,
  /// and inference between steps carves less than a gradient tile does.
  void evaluateGrad(const std::vector<Bits128>& samples,
                    const std::vector<Real>& dLogAmp,
                    const std::vector<Real>& dPhase);

  /// Arena accounting of the gradient tape (the net's EvalSlot's first
  /// tape, which phases() and evaluate() carve too): highWater is the peak
  /// Reals live in any one tile — after a training step the measured "peak
  /// training activation memory" BM_BackwardTiled reports and the README
  /// quotes, since no inference tile carves more than a gradient tile.
  [[nodiscard]] const nn::Tape::Stats& gradTapeStats() const {
    return evalSlot_.tapes.front().tape.stats();
  }

  /// Tape Reals one sample carves in evaluateGrad's amplitude loop and in
  /// its phase loop (64-byte alignment slack aside): what the default tiles
  /// are sized by.
  struct GradTapeCost {
    Index amplitude = 0;
    Index phase = 0;
  };
  [[nodiscard]] GradTapeCost gradTapeRealsPerSample() const;

  /// Deterministic named-parameter registry (amplitude network first, then
  /// the phase MLP, each in construction order) — the ordering contract the
  /// binary checkpoint format (io/checkpoint.hpp) relies on for byte-identical
  /// re-saves.  Parameter k is the slice at the running offset of the net's
  /// one value buffer and one gradient buffer.
  const std::vector<nn::Parameter*>& parameters() { return params_; }
  [[nodiscard]] Index parameterCount() const { return static_cast<Index>(grads_.size()); }
  /// The one value buffer and the one gradient buffer, every parameter's
  /// slice in parameters() order: what Stage 6 reduces and steps in place.
  [[nodiscard]] std::span<Real> values() { return values_; }
  [[nodiscard]] std::span<Real> gradients() { return grads_; }

  /// Copies of gradients(), out and in (perfbench's Stage-6 replica spells
  /// them); loadGradients throws std::invalid_argument unless
  /// in.size() == parameterCount().
  void flattenGradients(std::vector<Real>& out) const;
  void loadGradients(const std::vector<Real>& in);

  // --- Concurrent inference (the amplitude-serving path, src/serve/) --------

  /// Everything one evaluateInto() call mutates: the amplitude net's tape
  /// and frame per thread of TransformerAR::evaluateTiled (one unless its
  /// tile-parallel loop runs; never empty), the token marshalling scratch,
  /// and the phase MLP's frame, whose tiles run on the first tape.  One slot
  /// per worker thread; all buffers reuse their capacity, so a warm
  /// evaluateInto performs zero heap allocations.  The net's own slot also
  /// carries evaluateGrad's two loops.
  struct EvalSlot {
    std::vector<nn::TransformerAR::EvalTape> tapes =
        std::vector<nn::TransformerAR::EvalTape>(1);
    std::vector<int> tokens;
    nn::PhaseMlp::TapeFrame phaseFrame;
  };

  /// No-op, kept so existing callers compile: inference is const, so
  /// concurrent evaluateInto() calls need no preparation.
  void prepareConcurrent() const {}

  /// ln|Psi| and phase of `samples` using only `slot` for mutable state —
  /// bit-identical to evaluate() with the same kernel, for any batch
  /// composition (per-row arithmetic is independent of
  /// the surrounding batch, the serving layer's coalescing contract).  Const:
  /// any number of threads may call it at once, each with its own slot, as
  /// long as no thread changes the parameters meanwhile.  `kernel` should be
  /// a non-forking policy (kSimd/kScalar) when called from concurrent
  /// workers.
  void evaluateInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                    std::vector<Real>& logAmp, std::vector<Real>& phase,
                    nn::kernels::KernelPolicy kernel =
                        nn::kernels::KernelPolicy::kSimd) const;

 private:
  /// Tokens of `count` full samples in network input order, [BOS, t_0 ..
  /// t_{L-2}] each.  The single token-marshalling point: evaluate() and
  /// evaluateGrad() both consume its layout.
  void inputTokens(const Bits128* samples, Index count, std::vector<int>& out) const;

  /// Samples per tile of a loop that carves `realsPerSample` tape Reals per
  /// sample, as ExecutionPolicy::gradTileRows says.
  [[nodiscard]] Index tapeTileRows(Index realsPerSample, Index batch) const;

  /// phases() on `slot` and the given kernel.
  void phasesInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                  std::vector<Real>& phase, nn::kernels::KernelPolicy kernel) const;
  /// One phase tile, the single phase forward of phases() and evaluateGrad():
  /// resets `slot`'s first tape, encodes samples [t0, t0 + rows) as +-1 into
  /// x [rows, nQubits] on it and records the phase MLP's forward into
  /// slot.phaseFrame.  Returns the tile's phases [rows] (tape-resident).
  const Real* phaseForward(EvalSlot& slot, const std::vector<Bits128>& samples,
                           Index t0, Index rows, nn::kernels::KernelPolicy kernel) const;

  /// d ln|Psi| / d logits for one (sample, position): dl[4] must arrive
  /// zeroed; pr[4] are that position's masked conditionals.
  void seedLogitRow(Real seed, Bits128 sample, int s, const Real* pr, Real* dl) const;

  /// ln|Psi| of `sample` from its nSteps() positions' logits lg [L, 4]: the
  /// masked log-conditionals folded in ascending s, kLogZeroAmp once the
  /// sample leaves the number-conserving support.  Position s's masked
  /// conditionals land in pr + s * prStride (the gradient's seed input;
  /// inference passes stride 0 and a [4] scratch).  The single ln|Psi| fold
  /// of evaluate() and evaluateGrad(), so their arithmetic, and the
  /// bit-identity contract, cannot drift apart.
  Real foldLogAmp(const Real* lg, Bits128 sample, Real* pr, Index prStride) const;

  QiankunNetConfig cfg_;
  Rng rng_;
  nn::TransformerAR amplitude_;
  nn::PhaseMlp phase_;
  // Inference configuration of evaluate()/psi() (setEvalPolicy).
  nn::kernels::KernelPolicy evalKernel_ = nn::kernels::KernelPolicy::kAuto;
  Index gradTileRows_ = 0;  ///< as ExecutionPolicy::gradTileRows
  // The one scratch slot of evaluate()/phases() and evaluateGrad(), which
  // never run at once.  Every buffer re-uses its capacity, so a warm call
  // allocates nothing (test_evaluate asserts it for evaluateInto and the
  // training step, test_sweep for phases()).
  EvalSlot evalSlot_;
  std::vector<nn::Parameter*> params_;
  std::vector<Real> values_, grads_;  ///< the flat store params_ view
};

}  // namespace nnqs::nqs
