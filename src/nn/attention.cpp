#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nnqs::nn {

namespace {
/// dModel / nHeads, checked before it divides.
Index headDim(Index dModel, Index nHeads) {
  if (nHeads < 1 || dModel % nHeads != 0)
    throw std::invalid_argument("attention: nHeads must be >= 1 and divide dModel");
  return dModel / nHeads;
}
}  // namespace

CausalSelfAttention::CausalSelfAttention(Index dModel, Index nHeads, Rng& rng,
                                         std::string name)
    : name_(name), d_(dModel), heads_(nHeads), headDim_(headDim(dModel, nHeads)),
      qkv_(dModel, 3 * dModel, rng, name + ".qkv"),
      proj_(dModel, dModel, rng, name + ".proj") {}

namespace {
/// The training-attention kernel problem of one tape forward or backward
/// call (kernels.hpp AttnTrainArgs).
kernels::AttnTrainArgs trainArgs(Index batch, Index L, Index d, Index heads,
                                 Index headDim) {
  kernels::AttnTrainArgs a;
  a.batch = batch;
  a.window = L;
  a.heads = heads;
  a.headDim = headDim;
  a.dModel = d;
  a.scale = 1.0 / std::sqrt(static_cast<Real>(headDim));
  return a;
}
}  // namespace

const Real* CausalSelfAttention::forwardTape(Tape& tape, TapeFrame& f,
                                             const Real* x, Index rows,
                                             Index window,
                                             kernels::KernelPolicy policy) const {
  const Index L = window;
  if (L <= 0 || rows % L != 0)
    throw std::invalid_argument(name_ + ": " + std::to_string(rows) +
                                " rows is not a whole number of attention windows of " +
                                std::to_string(L));
  const Index batch = rows / L;

  const Real* qkv = qkv_.forwardTape(tape, f.qkv, x, rows, policy);
  Real* attn = tape.alloc(batch * heads_ * L * L);
  Real* ctx = tape.alloc(rows * d_);
  // The attention kernel accumulates into the context.  (fill_n, not
  // memset: a zero-row span on a fresh tape is null.)
  std::fill_n(ctx, rows * d_, Real{0});
  kernels::AttnTrainArgs a = trainArgs(batch, L, d_, heads_, headDim_);
  a.qkv = qkv;
  a.attn = attn;
  a.ctx = ctx;
  kernels::attnTrainForward(a, policy);
  f.qkvOut = qkv;
  f.attn = attn;
  f.batch = batch;
  f.window = L;
  f.generation = tape.generation();
  return proj_.forwardTape(tape, f.proj, ctx, rows, policy);
}

void CausalSelfAttention::decodeStep(const Real* x, Index batch,
                                     DecodeState& state, Index layer,
                                     Real* out) const {
  const Index pos = state.len;
  const Index maxLen = state.maxLen;
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(headDim_));

  // [B, 3D]: q | k | v per row, on the GEMM backend of the state's policy,
  // carved from the decode step's tape (no per-step tensor churn).
  Real* qkv = state.ws.alloc(batch * 3 * d_);
  qkv_.forwardInto(x, batch, qkv, state.kernel);
  // Append this position's keys/values to the arena: K position-transposed
  // ([D][maxLen] per slot), V position-major ([maxLen][D] per slot) — the
  // layouts the kernel backends stream contiguously (decode_state.hpp).
  Real* kBase = state.kSlot(layer, 0);
  Real* vBase = state.vSlot(layer, 0);
  for (Index b = 0; b < batch; ++b) {
    const Real* row = qkv + b * 3 * d_;
    const Index slot = state.rowSlot[static_cast<std::size_t>(b)];
    Real* kDst = kBase + slot * maxLen * d_ + pos;
    Real* vDst = vBase + (slot * maxLen + pos) * d_;
    for (Index t = 0; t < d_; ++t) {
      kDst[t * maxLen] = row[d_ + t];
      vDst[t] = row[2 * d_ + t];
    }
  }

  // The attention kernel accumulates into ctx, so the carved span needs an
  // explicit zero.
  Real* ctx = state.ws.alloc(batch * d_);
  std::fill_n(ctx, batch * d_, Real{0});
  kernels::DecodeAttnArgs args;
  args.batch = batch;
  args.heads = heads_;
  args.headDim = headDim_;
  args.dModel = d_;
  args.pos = pos;
  args.maxLen = maxLen;
  args.q = qkv;  // q is the first D of each fused row
  args.qStride = 3 * d_;
  args.k = kBase;
  args.v = vBase;
  args.slots = state.rowSlot.data();
  args.ctx = ctx;
  args.scale = scale;
  kernels::decodeAttention(args, state.kernel);

  proj_.forwardInto(ctx, batch, out, state.kernel);
}

Real* CausalSelfAttention::backwardTape(Tape& tape, const TapeFrame& f,
                                        const Real* dy) {
  if (f.generation != tape.generation()) throw StaleTapeError(name_);
  const Index batch = f.batch;
  const Index Lc = f.window;
  const Index rows = batch * Lc;

  Real* dCtx = proj_.backwardTape(tape, f.proj, dy);
  Real* dQkv = tape.alloc(rows * 3 * d_);
  std::fill_n(dQkv, rows * 3 * d_, Real{0});
  kernels::AttnTrainArgs a = trainArgs(batch, Lc, d_, heads_, headDim_);
  a.qkv = f.qkvOut;
  a.attn = f.attn;
  a.dCtx = dCtx;
  a.dQkv = dQkv;
  kernels::attnTrainBackward(a, kernels::KernelPolicy::kAuto);
  return qkv_.backwardTape(tape, f.qkv, dQkv);
}

void CausalSelfAttention::collectParameters(std::vector<Parameter*>& out) {
  qkv_.collectParameters(out);
  proj_.collectParameters(out);
}

}  // namespace nnqs::nn
