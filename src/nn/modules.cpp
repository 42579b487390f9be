#include "nn/modules.hpp"

#include <cmath>
#include <stdexcept>

namespace nnqs::nn {

// ---------------------------------------------------------------- Linear ---

Linear::Linear(Index in, Index out, Rng& rng, std::string name)
    : w({out, in}, name + ".w"), b({out}, name + ".b"),
      name_(std::move(name)), in_(in), out_(out) {
  w.value.randn(rng, std::sqrt(2.0 / static_cast<Real>(in + out)));
}

Tensor Linear::forward(const Tensor& x, GradMode mode) {
  return forward(x, mode, kernels::KernelPolicy::kAuto);
}

Tensor Linear::forward(const Tensor& x, GradMode mode, kernels::KernelPolicy policy) {
  if (x.numel() % in_ != 0)
    throw std::invalid_argument("Linear::forward: input numel not divisible by in features");
  const Index rows = x.numel() / in_;
  if (mode == GradMode::kInference) invalidateBecause(stale::kInferenceForward);
  // Uninitialized destination: the GEMM's bias init writes every element, so
  // a zero-filled constructor would be the double-fill the kernels remove.
  Tensor y = Tensor::uninit({rows, out_});
  forwardInto(x.data.data(), rows, y.data.data(), policy);
  if (mode == GradMode::kRecordTape) {
    cachedX_ = x;
    hasCache_ = true;
  }
  return y;
}

void Linear::forwardInto(const Real* x, Index rows, Real* y,
                         kernels::KernelPolicy policy) {
  // A raw-buffer call is an inference forward: invalidate (modules.hpp).
  invalidateBecause(stale::kRawForward);
  // y = x W^T + b on the register-blocked GEMM backend (bit-identical to the
  // naive loop under every policy).
  kernels::GemmArgs g;
  g.m = rows;
  g.n = out_;
  g.k = in_;
  g.a = x;
  g.lda = in_;
  g.b = w.value.data.data();
  g.ldb = in_;
  g.transB = true;  // W is [out, in]: B[l,j] = W[j,l]
  g.c = y;
  g.ldc = out_;
  g.bias = b.value.data.data();
  kernels::gemm(g, policy);
}

const Real* Linear::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                Index rows, kernels::KernelPolicy policy) {
  invalidateBecause(stale::kTapeForward);
  Real* y = tape.alloc(rows * out_);
  kernels::GemmArgs g;
  g.m = rows;
  g.n = out_;
  g.k = in_;
  g.a = x;
  g.lda = in_;
  g.b = w.value.data.data();
  g.ldb = in_;
  g.transB = true;
  g.c = y;
  g.ldc = out_;
  g.bias = b.value.data.data();
  kernels::gemm(g, policy);
  f.x = x;
  f.rows = rows;
  return y;
}

namespace {
// Shared by the Tensor-level backward and backwardTape so the two gradient
// paths are one arithmetic sequence: dX = dY W (single fill), dW += dY^T X
// (ascending-k accumulate fold — tile-splittable exactly), db += colsum(dY)
// (ascending-r serial fold).
void linearBackwardKernels(const Real* dy, const Real* x, Index rows,
                           Index in, Index out, const Real* wVal, Real* dx,
                           Real* wGrad, Real* bGrad,
                           kernels::KernelPolicy policy) {
  kernels::GemmArgs gx;
  gx.m = rows;
  gx.n = in;
  gx.k = out;
  gx.a = dy;
  gx.lda = out;
  gx.b = wVal;
  gx.ldb = in;  // B[l,j] = W[l,j]
  gx.c = dx;
  gx.ldc = in;
  kernels::gemm(gx, policy);
  // dW += dY^T X (threaded rows of dW are disjoint, so accumulating into the
  // shared parameter is race-free; the ascending-r sum per element matches
  // the historical serial loop bit for bit).
  kernels::GemmArgs gw;
  gw.m = out;
  gw.n = in;
  gw.k = rows;
  gw.a = dy;
  gw.lda = out;
  gw.transA = true;  // A[o,r] = dY[r,o]
  gw.b = x;
  gw.ldb = in;
  gw.c = wGrad;
  gw.ldc = in;
  gw.accumulate = true;
  kernels::gemm(gw, policy);
  // db += colsum(dY): ascending-r per output, as before.
  for (Index r = 0; r < rows; ++r) {
    const Real* dyr = dy + r * out;
    for (Index o = 0; o < out; ++o) bGrad[o] += dyr[o];
  }
}
}  // namespace

Tensor Linear::backward(const Tensor& dy) {
  if (!hasCache_) throw StaleTapeError(name_, staleReason_);
  if (dy.numel() % out_ != 0)
    throw std::invalid_argument("Linear::backward: dy numel not divisible by out features");
  const Index rows = dy.numel() / out_;
  if (rows * in_ != cachedX_.numel())
    throw std::invalid_argument("Linear::backward: dy rows do not match cached input");
  // Uninitialized: the GEMM's zero init is the single fill of dx.
  Tensor dx = Tensor::uninit({rows, in_});
  linearBackwardKernels(dy.data.data(), cachedX_.data.data(), rows, in_, out_,
                        w.value.data.data(), dx.data.data(),
                        w.grad.data.data(), b.grad.data.data(),
                        kernels::KernelPolicy::kAuto);
  return dx;
}

Real* Linear::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy,
                           kernels::KernelPolicy policy) {
  if (f.x == nullptr && f.rows > 0)
    throw StaleTapeError(name_, "backwardTape frame was never recorded by forwardTape");
  Real* dx = tape.alloc(f.rows * in_);
  linearBackwardKernels(dy, f.x, f.rows, in_, out_, w.value.data.data(), dx,
                        w.grad.data.data(), b.grad.data.data(), policy);
  return dx;
}

void Linear::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w);
  out.push_back(&b);
}

// ------------------------------------------------------------- LayerNorm ---

LayerNorm::LayerNorm(Index dim, std::string name)
    : gamma({dim}, name + ".gamma"), beta({dim}, name + ".beta"),
      name_(std::move(name)), dim_(dim) {
  for (auto& v : gamma.value.data) v = 1.0;
}

Tensor LayerNorm::forward(const Tensor& x, GradMode mode) {
  if (x.numel() % dim_ != 0)
    throw std::invalid_argument("LayerNorm::forward: input numel not divisible by dim");
  const Index rows = x.numel() / dim_;
  Tensor y = Tensor::uninit({rows, dim_});
  kernels::ResidualLnArgs a;
  a.rows = rows;
  a.dim = dim_;
  a.x = x.data.data();
  a.gamma = gamma.value.data.data();
  a.beta = beta.value.data.data();
  a.y = y.data.data();
  if (mode == GradMode::kRecordTape) {
    cachedXhat_ = Tensor::uninit({rows, dim_});
    cachedInvStd_.resize(static_cast<std::size_t>(rows));
    a.xhat = cachedXhat_.data.data();
    a.invStd = cachedInvStd_.data();
    hasCache_ = true;
  } else {
    invalidateBecause(stale::kInferenceForward);
  }
  kernels::residualLayerNorm(a);
  return y;
}

const Real* LayerNorm::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                   Index rows) {
  invalidateBecause(stale::kTapeForward);
  Real* y = tape.alloc(rows * dim_);
  Real* xhat = tape.alloc(rows * dim_);
  Real* invStd = tape.alloc(rows);
  kernels::ResidualLnArgs a;
  a.rows = rows;
  a.dim = dim_;
  a.x = x;
  a.gamma = gamma.value.data.data();
  a.beta = beta.value.data.data();
  a.y = y;
  a.xhat = xhat;
  a.invStd = invStd;
  kernels::residualLayerNorm(a);
  f.xhat = xhat;
  f.invStd = invStd;
  f.rows = rows;
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy) {
  if (!hasCache_) throw StaleTapeError(name_, staleReason_);
  if (dy.numel() % dim_ != 0)
    throw std::invalid_argument("LayerNorm::backward: dy numel not divisible by dim");
  const Index rows = dy.numel() / dim_;
  if (rows * dim_ != cachedXhat_.numel())
    throw std::invalid_argument("LayerNorm::backward: dy rows do not match cached input");
  Tensor dx = Tensor::uninit({rows, dim_});
  kernels::LayerNormBwdArgs a;
  a.rows = rows;
  a.dim = dim_;
  a.dy = dy.data.data();
  a.xhat = cachedXhat_.data.data();
  a.invStd = cachedInvStd_.data();
  a.gamma = gamma.value.data.data();
  a.dgamma = gamma.grad.data.data();
  a.dbeta = beta.grad.data.data();
  a.dx = dx.data.data();
  kernels::layerNormBackward(a);
  return dx;
}

Real* LayerNorm::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy) {
  if (f.xhat == nullptr && f.rows > 0)
    throw StaleTapeError(name_, "backwardTape frame was never recorded by forwardTape");
  Real* dx = tape.alloc(f.rows * dim_);
  kernels::LayerNormBwdArgs a;
  a.rows = f.rows;
  a.dim = dim_;
  a.dy = dy;
  a.xhat = f.xhat;
  a.invStd = f.invStd;
  a.gamma = gamma.value.data.data();
  // dgamma/dbeta accumulate in the kernel's ascending-row serial fold;
  // ascending-tile calls extend the same fold, matching monolithic bits.
  a.dgamma = gamma.grad.data.data();
  a.dbeta = beta.grad.data.data();
  a.dx = dx;
  kernels::layerNormBackward(a);
  return dx;
}

void LayerNorm::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

// ------------------------------------------------------------------ Gelu ---

Tensor Gelu::forward(const Tensor& x, GradMode mode) {
  Tensor y = Tensor::uninit(x.shape);
  kernels::gelu(x.data.data(), y.data.data(), x.numel());
  if (mode == GradMode::kRecordTape) {
    cachedX_ = x;
    hasCache_ = true;
  } else {
    invalidateBecause(stale::kInferenceForward);
  }
  return y;
}

const Real* Gelu::forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index n) {
  invalidateBecause(stale::kTapeForward);
  Real* y = tape.alloc(n);
  kernels::gelu(x, y, n);
  f.x = x;
  f.n = n;
  return y;
}

Tensor Gelu::backward(const Tensor& dy) {
  if (!hasCache_) throw StaleTapeError(name_, staleReason_);
  if (dy.numel() != cachedX_.numel())
    throw std::invalid_argument("Gelu::backward: dy shape does not match cached input");
  Tensor dx = Tensor::uninit(dy.shape);
  kernels::geluBackward(cachedX_.data.data(), dy.data.data(), dx.data.data(),
                        dy.numel());
  return dx;
}

Real* Gelu::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy) {
  if (f.x == nullptr && f.n > 0)
    throw StaleTapeError(name_, "backwardTape frame was never recorded by forwardTape");
  Real* dx = tape.alloc(f.n);
  kernels::geluBackward(f.x, dy, dx, f.n);
  return dx;
}

// ------------------------------------------------------------------ Tanh ---

Tensor TanhAct::forward(const Tensor& x, GradMode mode) {
  Tensor y = Tensor::uninit(x.shape);
  kernels::tanh(x.data.data(), y.data.data(), x.numel());
  if (mode == GradMode::kRecordTape) {
    cachedY_ = y;
    hasCache_ = true;
  } else {
    // write-free when already clear (modules.hpp contract)
    invalidateBecause(stale::kInferenceForward);
  }
  return y;
}

const Real* TanhAct::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                 Index n) {
  invalidateBecause(stale::kTapeForward);
  Real* y = tape.alloc(n);
  kernels::tanh(x, y, n);
  f.y = y;
  f.n = n;
  return y;
}

Tensor TanhAct::backward(const Tensor& dy) {
  if (!hasCache_) throw StaleTapeError(name_, staleReason_);
  if (dy.numel() != cachedY_.numel())
    throw std::invalid_argument("TanhAct::backward: dy shape does not match cached output");
  Tensor dx = dy;
  for (std::size_t i = 0; i < dx.data.size(); ++i)
    dx.data[i] *= 1.0 - cachedY_.data[i] * cachedY_.data[i];
  return dx;
}

Real* TanhAct::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy) {
  if (f.y == nullptr && f.n > 0)
    throw StaleTapeError(name_, "backwardTape frame was never recorded by forwardTape");
  Real* dx = tape.alloc(f.n);
  for (Index i = 0; i < f.n; ++i) dx[i] = dy[i] * (1.0 - f.y[i] * f.y[i]);
  return dx;
}

// ------------------------------------------------------------- Embedding ---

Embedding::Embedding(Index vocab, Index maxLen, Index dim, Rng& rng, std::string name)
    : token({vocab, dim}, name + ".tok"), position({maxLen, dim}, name + ".pos"),
      name_(std::move(name)), dim_(dim) {
  token.value.randn(rng, 0.02);
  position.value.randn(rng, 0.02);
}

Tensor Embedding::forward(const std::vector<int>& tokens, Index seqLen, GradMode mode) {
  const Index rows = static_cast<Index>(tokens.size());
  Tensor y = Tensor::uninit({rows, dim_});
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[static_cast<std::size_t>(r)];
    const Index pos = r % seqLen;
    const Real* te = token.value.data.data() + t * dim_;
    const Real* pe = position.value.data.data() + pos * dim_;
    Real* yr = y.data.data() + r * dim_;
    for (Index i = 0; i < dim_; ++i) yr[i] = te[i] + pe[i];
  }
  if (mode == GradMode::kRecordTape) {
    cachedTokens_ = tokens;
    cachedSeqLen_ = seqLen;
    hasCache_ = true;
  } else {
    if (hasCache_) staleReason_ = stale::kInferenceForward;
    cachedTokens_.clear();
    cachedSeqLen_ = 0;
    hasCache_ = false;
  }
  return y;
}

const Real* Embedding::forwardTape(Tape& tape, const int* tokens, Index rows,
                                   Index seqLen) {
  if (hasCache_) staleReason_ = stale::kTapeForward;
  cachedTokens_.clear();
  cachedSeqLen_ = 0;
  hasCache_ = false;
  Real* y = tape.alloc(rows * dim_);
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[r];
    const Index pos = r % seqLen;
    const Real* te = token.value.data.data() + t * dim_;
    const Real* pe = position.value.data.data() + pos * dim_;
    Real* yr = y + r * dim_;
    for (Index i = 0; i < dim_; ++i) yr[i] = te[i] + pe[i];
  }
  return y;
}

void Embedding::backward(const Tensor& dy) {
  // hasCache_, not cachedTokens_.empty(): a cached zero-row forward is a
  // legitimate empty batch whose backward is a no-op, not a logic error.
  if (!hasCache_) throw StaleTapeError(name_, staleReason_);
  const Index rows = static_cast<Index>(cachedTokens_.size());
  if (dy.numel() != rows * dim_)
    throw std::invalid_argument("Embedding::backward: dy rows do not match cached tokens");
  backwardTape(cachedTokens_.data(), rows, cachedSeqLen_, dy.data.data());
}

void Embedding::backwardTape(const int* tokens, Index rows, Index seqLen,
                             const Real* dy) {
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[r];
    const Index pos = r % seqLen;
    const Real* dyr = dy + r * dim_;
    Real* tg = token.grad.data.data() + t * dim_;
    Real* pg = position.grad.data.data() + pos * dim_;
    for (Index i = 0; i < dim_; ++i) {
      tg[i] += dyr[i];
      pg[i] += dyr[i];
    }
  }
}

void Embedding::stepInto(const std::vector<int>& tokens, Index pos, Real* y) const {
  const Index rows = static_cast<Index>(tokens.size());
  const Real* pe = position.value.data.data() + pos * dim_;
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[static_cast<std::size_t>(r)];
    const Real* te = token.value.data.data() + t * dim_;
    Real* yr = y + r * dim_;
    for (Index i = 0; i < dim_; ++i) yr[i] = te[i] + pe[i];
  }
}

void Embedding::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&token);
  out.push_back(&position);
}

}  // namespace nnqs::nn
