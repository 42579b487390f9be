#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/parameter.hpp"
#include "nn/tape.hpp"

namespace nnqs::nn {

// Module convention: a module owns parameters (an activation without any is
// a kernel call, kernels::gelu / kernels::tanh, made by the module that
// uses it), and has one forward per purpose.  The raw-buffer `forwardInto` /
// `decodeStep` / `stepInto` paths serve only the decode engine: const, they
// record nothing and write into caller storage (carved from the decode
// step's Tape), so any number of threads may run them on one module at
// once.  Every other forward is `forwardTape` (const too): it carves the
// outputs and whatever the backward needs from a caller-owned Tape and
// stores the span pointers in a caller-held per-module TapeFrame;
// `backwardTape` consumes the frame, returns dx on the same tape and
// accumulates the parameter gradients.  Inference that is not decoding (the
// teacher-forced evaluate, the phase MLP's phases) runs `forwardTape` with
// no backward.  A leaf frame stamps the tape's generation, so a backward
// over a frame the tape has since been reset under throws StaleTapeError.

/// Y = X W^T + b with W[out,in].  Forward and both backward GEMMs (dX = dY W,
/// dW += dY^T X) run on the register-blocked kernels::gemm backend; every
/// KernelPolicy is bit-identical to the naive loops this replaced.
class Linear {
 public:
  Linear(Index in, Index out, Rng& rng, std::string name);
  /// Raw-buffer inference for the zero-allocation decode path: y [rows, out]
  /// is caller storage (tape-carved), fully overwritten.
  void forwardInto(const Real* x, Index rows, Real* y, kernels::KernelPolicy policy) const;
  void collectParameters(std::vector<Parameter*>& out);

  /// Tape record: y [rows, out_] is carved from `tape`; the input span (which
  /// must stay live until backwardTape — tape-resident upstream outputs
  /// qualify) is recorded zero-copy in `f`.  y is returned writable, so an
  /// elementwise activation may run in place on it (PhaseMlp's tanh).
  struct TapeFrame {
    const Real* x = nullptr;
    Index rows = 0;
    std::uint64_t generation = 0;
  };
  Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                    kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  /// dx [rows, in_] carved from `tape`; dW (accumulate-GEMM, ascending k) and
  /// db (ascending rows) are serial folds, so ascending-tile calls give the
  /// bits of one call over the whole batch.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  Parameter w, b;

 private:
  /// The parameter half of backwardTape: dW += dY^T X, db += colsum(dY).
  /// PhaseMlp's first layer runs only this half, since its input (the +-1
  /// encoding) needs no gradient.
  void accumulateGrads(const Tape& tape, const TapeFrame& f, const Real* dy);
  friend class PhaseMlp;

  std::string name_;
  Index in_, out_;
};

/// LayerNorm over the last dimension, on the kernels::residualLayerNorm /
/// kernels::layerNormBackward backends (elementwise.hpp).  The decode path
/// runs the same kernel through forwardInto with its residual fused in, so
/// tape and decode activations stay bit-identical.
class LayerNorm {
 public:
  LayerNorm(Index dim, std::string name);
  void collectParameters(std::vector<Parameter*>& out);

  /// Raw-buffer inference for the zero-allocation decode path, with the
  /// previous stage's residual fused in: y = LN(x + res) [rows, dim], and
  /// h = x + res when `res` is given (h is then required: the residual
  /// stream the next stage reads).  y and h are caller storage (tape-carved),
  /// fully overwritten.
  void forwardInto(const Real* x, const Real* res, Real* h, Index rows, Real* y,
                   kernels::KernelPolicy policy) const;

  /// Tape record: y, xhat [rows, dim_] and invStd [rows] are carved from
  /// `tape` (xhat/invStd are what the backward needs).
  struct TapeFrame {
    const Real* xhat = nullptr;
    const Real* invStd = nullptr;
    Index rows = 0;
    std::uint64_t generation = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  /// dgamma/dbeta accumulate in the kernel's ascending-row serial fold, so
  /// ascending-tile calls match one whole-batch call bit for bit.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  Parameter gamma, beta;

 private:
  std::string name_;
  Index dim_;
};

/// Token + learned positional embedding: tokens[R] (R = B*L) -> [R, d].
class Embedding {
 public:
  Embedding(Index vocab, Index maxLen, Index dim, Rng& rng, std::string name);
  void collectParameters(std::vector<Parameter*>& out);

  /// Single-step decode: embed tokens[B], all at sequence position `pos`,
  /// into caller storage y [B, dim] (fully overwritten).
  void stepInto(const std::vector<int>& tokens, Index pos, Real* y) const;

  /// Tape embed: y[r] = token[tokens[r]] + position[r % seqLen] for rows
  /// [0, rows), carved from `tape`.  No frame — the caller
  /// (TransformerAR::TapeFrame) owns the tile's token span and passes it back
  /// to backwardTape.  Rows must cover whole samples (rows % seqLen == 0) so
  /// position indices match the whole-batch forward.
  const Real* forwardTape(Tape& tape, const int* tokens, Index rows,
                          Index seqLen) const;
  /// Ascending-row += into token/position grads, so ascending-tile calls are
  /// bit-identical to one whole-batch call.
  void backwardTape(const int* tokens, Index rows, Index seqLen,
                    const Real* dy);

  Parameter token, position;

 private:
  Index dim_;
};

}  // namespace nnqs::nn
