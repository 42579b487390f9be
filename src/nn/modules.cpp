#include "nn/modules.hpp"

#include <algorithm>
#include <cmath>

namespace nnqs::nn {

namespace {
/// Gaussian init of every value of `p` with the given std-dev.
void randn(Parameter& p, Rng& rng, Real stddev) {
  for (Index i = 0; i < p.numel(); ++i) p.value[i] = stddev * rng.normal();
}
}  // namespace

// ---------------------------------------------------------------- Linear ---

Linear::Linear(Index in, Index out, Rng& rng, std::string name)
    : w({out, in}, name + ".w"), b({out}, name + ".b"),
      name_(std::move(name)), in_(in), out_(out) {
  randn(w, rng, std::sqrt(2.0 / static_cast<Real>(in + out)));
}

void Linear::forwardInto(const Real* x, Index rows, Real* y,
                         kernels::KernelPolicy policy) const {
  // y = x W^T + b on the register-blocked GEMM backend (bit-identical to the
  // naive loop under every policy).
  kernels::GemmArgs g;
  g.m = rows;
  g.n = out_;
  g.k = in_;
  g.a = x;
  g.lda = in_;
  g.b = w.value;
  g.ldb = in_;
  g.transB = true;  // W is [out, in]: B[l,j] = W[j,l]
  g.c = y;
  g.ldc = out_;
  g.bias = b.value;
  kernels::gemm(g, policy);
}

Real* Linear::forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          kernels::KernelPolicy policy) const {
  Real* y = tape.alloc(rows * out_);
  forwardInto(x, rows, y, policy);
  f.x = x;
  f.rows = rows;
  f.generation = tape.generation();
  return y;
}

Real* Linear::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy) {
  accumulateGrads(tape, f, dy);
  const Index rows = f.rows;
  Real* dx = tape.alloc(rows * in_);
  // dX = dY W (the GEMM's zero init is the single fill of dx).
  kernels::GemmArgs gx;
  gx.m = rows;
  gx.n = in_;
  gx.k = out_;
  gx.a = dy;
  gx.lda = out_;
  gx.b = w.value;
  gx.ldb = in_;  // B[l,j] = W[l,j]
  gx.c = dx;
  gx.ldc = in_;
  kernels::gemm(gx);
  return dx;
}

void Linear::accumulateGrads(const Tape& tape, const TapeFrame& f, const Real* dy) {
  if (f.generation != tape.generation()) throw StaleTapeError(name_);
  const Index rows = f.rows;
  // dW += dY^T X (threaded rows of dW are disjoint, so accumulating into the
  // shared parameter is race-free; the ascending-r sum per element matches
  // the serial loop bit for bit).
  kernels::GemmArgs gw;
  gw.m = out_;
  gw.n = in_;
  gw.k = rows;
  gw.a = dy;
  gw.lda = out_;
  gw.transA = true;  // A[o,r] = dY[r,o]
  gw.b = f.x;
  gw.ldb = in_;
  gw.c = w.grad;
  gw.ldc = in_;
  gw.accumulate = true;
  kernels::gemm(gw);
  // db += colsum(dY): ascending-r per output.
  Real* bGrad = b.grad;
  for (Index r = 0; r < rows; ++r) {
    const Real* dyr = dy + r * out_;
    for (Index o = 0; o < out_; ++o) bGrad[o] += dyr[o];
  }
}

void Linear::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w);
  out.push_back(&b);
}

// ------------------------------------------------------------- LayerNorm ---

LayerNorm::LayerNorm(Index dim, std::string name)
    : gamma({dim}, name + ".gamma"), beta({dim}, name + ".beta"),
      name_(std::move(name)), dim_(dim) {
  std::fill_n(gamma.value, dim, 1.0);
}

void LayerNorm::forwardInto(const Real* x, const Real* res, Real* h, Index rows,
                            Real* y, kernels::KernelPolicy policy) const {
  kernels::residualLayerNorm({.rows = rows, .dim = dim_, .x = x, .res = res,
                              .gamma = gamma.value,
                              .beta = beta.value, .h = h, .y = y},
                             policy);
}

const Real* LayerNorm::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                   Index rows, kernels::KernelPolicy policy) const {
  Real* y = tape.alloc(rows * dim_);
  Real* xhat = tape.alloc(rows * dim_);
  Real* invStd = tape.alloc(rows);
  kernels::residualLayerNorm({.rows = rows, .dim = dim_, .x = x,
                              .gamma = gamma.value,
                              .beta = beta.value, .y = y,
                              .xhat = xhat, .invStd = invStd},
                             policy);
  f.xhat = xhat;
  f.invStd = invStd;
  f.rows = rows;
  f.generation = tape.generation();
  return y;
}

Real* LayerNorm::backwardTape(Tape& tape, const TapeFrame& f, const Real* dy) {
  if (f.generation != tape.generation()) throw StaleTapeError(name_);
  Real* dx = tape.alloc(f.rows * dim_);
  kernels::LayerNormBwdArgs a;
  a.rows = f.rows;
  a.dim = dim_;
  a.dy = dy;
  a.xhat = f.xhat;
  a.invStd = f.invStd;
  a.gamma = gamma.value;
  a.dgamma = gamma.grad;
  a.dbeta = beta.grad;
  a.dx = dx;
  kernels::layerNormBackward(a);
  return dx;
}

void LayerNorm::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

// ------------------------------------------------------------- Embedding ---

Embedding::Embedding(Index vocab, Index maxLen, Index dim, Rng& rng, std::string name)
    : token({vocab, dim}, name + ".tok"), position({maxLen, dim}, name + ".pos"),
      dim_(dim) {
  randn(token, rng, 0.02);
  randn(position, rng, 0.02);
}

const Real* Embedding::forwardTape(Tape& tape, const int* tokens, Index rows,
                                   Index seqLen) const {
  Real* y = tape.alloc(rows * dim_);
  for (Index r = 0; r < rows; ++r) {
    const Real* te = token.value + tokens[r] * dim_;
    const Real* pe = position.value + (r % seqLen) * dim_;
    Real* yr = y + r * dim_;
    for (Index i = 0; i < dim_; ++i) yr[i] = te[i] + pe[i];
  }
  return y;
}

void Embedding::backwardTape(const int* tokens, Index rows, Index seqLen,
                             const Real* dy) {
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[r];
    const Index pos = r % seqLen;
    const Real* dyr = dy + r * dim_;
    Real* tg = token.grad + t * dim_;
    Real* pg = position.grad + pos * dim_;
    for (Index i = 0; i < dim_; ++i) {
      tg[i] += dyr[i];
      pg[i] += dyr[i];
    }
  }
}

void Embedding::stepInto(const std::vector<int>& tokens, Index pos, Real* y) const {
  const Index rows = static_cast<Index>(tokens.size());
  const Real* pe = position.value + pos * dim_;
  for (Index r = 0; r < rows; ++r) {
    const Index t = tokens[static_cast<std::size_t>(r)];
    const Real* te = token.value + t * dim_;
    Real* yr = y + r * dim_;
    for (Index i = 0; i < dim_; ++i) yr[i] = te[i] + pe[i];
  }
}

void Embedding::collectParameters(std::vector<Parameter*>& out) {
  out.push_back(&token);
  out.push_back(&position);
}

}  // namespace nnqs::nn
