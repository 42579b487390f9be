#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/tape.hpp"
#include "nn/tensor.hpp"

namespace nnqs::nn {

/// Base class of all layers.  Convention: `forward(x, mode)` computes the
/// output; under GradMode::kRecordTape the module stores whatever it needs so
/// that a single subsequent `backward(dy)` can return dx and accumulate
/// parameter gradients.  (The VMC driver runs exactly one recording forward +
/// one backward per iteration; sampling uses kInference calls.)
///
/// A kInference forward *invalidates* any previously recorded activations:
/// `backward` must consume the immediately preceding recording forward, and a
/// backward after an inference forward throws StaleTapeError (naming the
/// module and the invalidating event) instead of silently computing gradients
/// against stale inputs.  The raw-buffer decode paths (`forwardInto` and the
/// kernel calls in the transformer's decodeStep) are inference forwards under
/// this invariant and invalidate the same way — as do the tape-recording
/// `forwardTape` paths, whose activations live on a caller-owned Tape and are
/// consumed by `backwardTape`, not by the Tensor-level `backward`.
class Module {
 public:
  virtual ~Module() = default;
  virtual Tensor forward(const Tensor& x, GradMode mode) = 0;
  /// One-release migration shim for the pre-GradMode API.
  [[deprecated("use forward(x, GradMode::{kInference,kRecordTape})")]]
  Tensor forward(const Tensor& x, bool cache) {
    return forward(x, cache ? GradMode::kRecordTape : GradMode::kInference);
  }
  virtual Tensor backward(const Tensor& dy) = 0;
  virtual void collectParameters(std::vector<Parameter*>& out) = 0;
  /// Clear the backward cache, write-free when already clear (the
  /// per-concrete-class contract below).  Virtual so container modules
  /// (PhaseMlp) and the concurrent-inference preparation step
  /// (QiankunNet::prepareConcurrent) can clear heterogeneous layer lists.
  virtual void invalidate() {}
};

/// Y = X W^T + b with W[out,in].  Forward and both backward GEMMs (dX = dY W,
/// dW += dY^T X) run on the register-blocked kernels::gemm backend; every
/// KernelPolicy is bit-identical to the naive loops this replaced.
class Linear : public Module {
 public:
  Linear(Index in, Index out, Rng& rng, std::string name);
  using Module::forward;
  Tensor forward(const Tensor& x, GradMode mode) override;
  /// Policy-selecting forward for the decode path (DecodeState::kernel); the
  /// Module override uses kAuto.
  Tensor forward(const Tensor& x, GradMode mode, kernels::KernelPolicy policy);
  [[deprecated("use forward(x, GradMode, policy)")]]
  Tensor forward(const Tensor& x, bool cache, kernels::KernelPolicy policy) {
    return forward(x, cache ? GradMode::kRecordTape : GradMode::kInference,
                   policy);
  }
  /// Raw-buffer inference for the zero-allocation decode path: y [rows, out]
  /// is caller storage (workspace-carved), fully overwritten.  Counts as an
  /// inference forward (invalidates the backward cache).
  void forwardInto(const Real* x, Index rows, Real* y, kernels::KernelPolicy policy);
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>& out) override;

  /// Tile-recompute record: y [rows, out_] is carved from `tape`; the input
  /// span (which must stay live until backwardTape — tape-resident upstream
  /// outputs qualify) is recorded zero-copy in `f`.  Arithmetic is the exact
  /// Tensor-forward GEMM, so replayed tiles are bit-identical.
  struct TapeFrame {
    const Real* x = nullptr;
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto);
  /// dx [rows, in_] carved from `tape`; dW/db accumulate with the same
  /// kernels and fold order as backward(), so ascending-tile calls reproduce
  /// the monolithic gradient bits.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy,
                     kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto);

  /// Decode-path cache invalidation.  Write-free when already clear: the
  /// tile-parallel evaluate sweep pre-invalidates on the calling thread, so
  /// concurrent inference tiles perform no writes to shared module state
  /// (see TransformerAR::evaluateDecode).
  void invalidate() override { invalidateBecause(stale::kExplicit); }

  Parameter w, b;

 private:
  void invalidateBecause(const char* why) {
    if (!hasCache_) return;
    cachedX_ = Tensor{};
    hasCache_ = false;
    staleReason_ = why;
  }

  std::string name_;
  Index in_, out_;
  Tensor cachedX_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// LayerNorm over the last dimension, on the kernels::residualLayerNorm /
/// kernels::layerNormBackward backends (elementwise.hpp; the decode path
/// calls the same kernels directly with its residual fused in, so full-
/// forward and decode activations stay bit-identical).
class LayerNorm : public Module {
 public:
  LayerNorm(Index dim, std::string name);
  using Module::forward;
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>& out) override;

  /// Tile-recompute record: y, xhat [rows, dim_] and invStd [rows] are carved
  /// from `tape` (xhat/invStd are the backward caches the Tensor path keeps
  /// module-resident).
  struct TapeFrame {
    const Real* xhat = nullptr;
    const Real* invStd = nullptr;
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows);
  /// dgamma/dbeta accumulate in the kernel's ascending-row serial fold, so
  /// ascending-tile calls match the monolithic fold bit for bit.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  /// Decode-path cache invalidation: the transformer's decodeStep runs this
  /// module's arithmetic on the kernels directly (an inference forward under
  /// the Module invariant), so it clears the backward cache through this.
  /// Write-free when already clear (see Linear::invalidate).
  void invalidate() override { invalidateBecause(stale::kExplicit); }

  Parameter gamma, beta;

 private:
  void invalidateBecause(const char* why) {
    if (!hasCache_) return;
    cachedXhat_ = Tensor{};
    cachedInvStd_.clear();
    hasCache_ = false;
    staleReason_ = why;
  }

  std::string name_;
  Index dim_;
  Tensor cachedXhat_;
  std::vector<Real> cachedInvStd_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// GELU (tanh approximation), elementwise, on the kernels::gelu backends
/// (vectorized branch-free tanh; elementwise.hpp).
class Gelu : public Module {
 public:
  explicit Gelu(std::string name = "gelu") : name_(std::move(name)) {}
  using Module::forward;
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>&) override {}

  /// Tile-recompute record: y [n] carved from `tape`; the input span is
  /// recorded zero-copy (it must stay tape-live until backwardTape).
  struct TapeFrame {
    const Real* x = nullptr;
    Index n = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index n);
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  /// Decode-path cache invalidation (see LayerNorm::invalidate); write-free
  /// when already clear.
  void invalidate() override { invalidateBecause(stale::kExplicit); }

 private:
  void invalidateBecause(const char* why) {
    if (!hasCache_) return;
    cachedX_ = Tensor{};
    hasCache_ = false;
    staleReason_ = why;
  }

  std::string name_;
  Tensor cachedX_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// Tanh, elementwise (phase network), on the kernels::tanh backends
/// (elementwise.hpp), which PhaseMlp::forwardInto runs too.
class TanhAct : public Module {
 public:
  explicit TanhAct(std::string name = "tanh") : name_(std::move(name)) {}
  using Module::forward;
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>&) override {}

  /// Tile-recompute record: y [n] carved from `tape` doubles as the backward
  /// cache (tanh' = 1 - y²).
  struct TapeFrame {
    const Real* y = nullptr;
    Index n = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index n);
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  /// Write-free when already clear, like the other modules: the concurrent
  /// phase-MLP inference path (PhaseMlp::forwardInto) requires every layer's
  /// cache cleared up front so serving threads never write shared state.
  void invalidate() override { invalidateBecause(stale::kExplicit); }

 private:
  void invalidateBecause(const char* why) {
    if (!hasCache_) return;
    cachedY_ = Tensor{};
    hasCache_ = false;
    staleReason_ = why;
  }

  std::string name_;
  Tensor cachedY_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// Token + learned positional embedding: tokens[R] (R = B*L) -> [R, d].
class Embedding {
 public:
  Embedding(Index vocab, Index maxLen, Index dim, Rng& rng, std::string name);
  Tensor forward(const std::vector<int>& tokens, Index seqLen, GradMode mode);
  [[deprecated("use forward(tokens, seqLen, GradMode)")]]
  Tensor forward(const std::vector<int>& tokens, Index seqLen, bool cache) {
    return forward(tokens, seqLen,
                   cache ? GradMode::kRecordTape : GradMode::kInference);
  }
  void backward(const Tensor& dy);
  void collectParameters(std::vector<Parameter*>& out);

  /// Single-step decode: embed tokens[B], all at sequence position `pos`,
  /// into caller storage y [B, dim] (fully overwritten).
  void stepInto(const std::vector<int>& tokens, Index pos, Real* y) const;

  /// Tile-recompute embed: y [rows, dim_] carved from `tape`.  No frame — the
  /// caller (TransformerAR::TapeFrame) owns the tile's token span and passes
  /// it back to backwardTape.  Rows must cover whole samples (rows % seqLen
  /// == 0) so position indices match the monolithic forward.
  const Real* forwardTape(Tape& tape, const int* tokens, Index rows,
                          Index seqLen);
  /// Ascending-row += into token/position grads — the monolithic loop split
  /// at tile boundaries, so ascending-tile calls are bit-identical.
  void backwardTape(const int* tokens, Index rows, Index seqLen,
                    const Real* dy);

  Parameter token, position;

 private:
  std::string name_;
  Index dim_;
  std::vector<int> cachedTokens_;
  Index cachedSeqLen_ = 0;
  // Distinguishes "no cached forward" from a legitimately cached empty batch
  // (cachedTokens_ is empty in both; only the first must make backward throw).
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

}  // namespace nnqs::nn
