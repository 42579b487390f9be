#include "nn/transformer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace nnqs::nn {

// ---------------------------------------------------------- DecoderBlock ---

DecoderBlock::DecoderBlock(Index dModel, Index nHeads, Index ffDim, Rng& rng,
                           std::string name)
    : d_(dModel), ffDim_(ffDim),
      ln1_(dModel, name + ".ln1"), ln2_(dModel, name + ".ln2"),
      attn_(dModel, nHeads, rng, name + ".attn"),
      ff1_(dModel, ffDim, rng, name + ".ff1"),
      ff2_(ffDim, dModel, rng, name + ".ff2") {}

const Real* DecoderBlock::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                      Index rows, Index window,
                                      kernels::KernelPolicy policy) const {
  const Index n = rows * d_;
  // Unfused LNs and explicit residual adds: the same sums the fused
  // decodeStep kernels compute, so the taped tile equals the decode path's
  // activations bit for bit.
  const Real* ln1out = ln1_.forwardTape(tape, f.ln1, x, rows, policy);
  const Real* attnOut = attn_.forwardTape(tape, f.attn, ln1out, rows, window, policy);
  Real* h = tape.alloc(n);
  for (Index i = 0; i < n; ++i) h[i] = attnOut[i] + x[i];
  const Real* ln2out = ln2_.forwardTape(tape, f.ln2, h, rows, policy);
  const Real* f1 = ff1_.forwardTape(tape, f.ff1, ln2out, rows, policy);
  Real* g = tape.alloc(rows * ffDim_);
  kernels::gelu(f1, g, rows * ffDim_, policy);
  const Real* f2 = ff2_.forwardTape(tape, f.ff2, g, rows, policy);
  Real* out = tape.alloc(n);
  for (Index i = 0; i < n; ++i) out[i] = f2[i] + h[i];
  f.x = x;
  f.h = h;
  f.f1 = f1;
  f.rows = rows;
  return out;
}

void DecoderBlock::decodeStep(const Real* a, const Real* r, DecodeState& state,
                              Index layer, const Real** aOut,
                              const Real** rOut) const {
  const Index batch = state.batch;
  const Index n = batch * d_;
  Tape& ws = state.ws;

  // ln1, fused with the previous stage's deferred residual: materializes the
  // block input x = a + r (needed again as the attention residual) while the
  // mean partials accumulate.
  Real* pre = ws.alloc(n);
  Real* h = r != nullptr ? ws.alloc(n) : nullptr;
  ln1_.forwardInto(a, r, h, batch, pre, state.kernel);
  const Real* x = r != nullptr ? h : a;  // block input

  Real* attnOut = ws.alloc(n);
  attn_.decodeStep(pre, batch, state, layer, attnOut);

  // ln2, fused with the attention residual: h2 = attnOut + x.
  Real* h2 = ws.alloc(n);
  Real* ln2out = ws.alloc(n);
  ln2_.forwardInto(attnOut, x, h2, batch, ln2out, state.kernel);

  // FF on the state's kernel policy, like the qkv/proj GEMMs; GELU runs
  // in place on the [B, ffDim] activations (elementwise, aliasing-safe).
  Real* f1 = ws.alloc(batch * ffDim_);
  ff1_.forwardInto(ln2out, batch, f1, state.kernel);
  kernels::gelu(f1, f1, batch * ffDim_, state.kernel);
  Real* f2 = ws.alloc(n);
  ff2_.forwardInto(f1, batch, f2, state.kernel);

  // Block output = f2 + h2, deferred into the next fused residual+LN.
  *aOut = f2;
  *rOut = h2;
}

Real* DecoderBlock::backwardTape(Tape& tape, const TapeFrame& f,
                                 const Real* dy) {
  const Index n = f.rows * d_;
  // dh = ln2'(ff1'(gelu'(ff2'(dy)))) + dy; dx = ln1'(attn'(dh)) + dh.
  // GELU' multiplies ff2's dx in place.
  Real* t = ff2_.backwardTape(tape, f.ff2, dy);
  kernels::geluBackward(f.f1, t, t, f.rows * ffDim_);
  t = ff1_.backwardTape(tape, f.ff1, t);
  Real* dh = ln2_.backwardTape(tape, f.ln2, t);
  for (Index i = 0; i < n; ++i) dh[i] += dy[i];
  Real* da = attn_.backwardTape(tape, f.attn, dh);
  Real* dx = ln1_.backwardTape(tape, f.ln1, da);
  for (Index i = 0; i < n; ++i) dx[i] += dh[i];
  return dx;
}

void DecoderBlock::collectParameters(std::vector<Parameter*>& out) {
  ln1_.collectParameters(out);
  attn_.collectParameters(out);
  ln2_.collectParameters(out);
  ff1_.collectParameters(out);
  ff2_.collectParameters(out);
}

// --------------------------------------------------------- TransformerAR ---

TransformerAR::TransformerAR(Index seqLen, Index dModel, Index nHeads,
                             Index nLayers, Rng& rng)
    : seqLen_(seqLen), d_(dModel), heads_(nHeads),
      embed_(kVocab, seqLen, dModel, rng, "amp.embed"),
      lnFinal_(dModel, "amp.lnf"),
      head_(dModel, kOutcomes, rng, "amp.head") {
  blocks_.reserve(static_cast<std::size_t>(nLayers));
  for (Index l = 0; l < nLayers; ++l)
    blocks_.emplace_back(dModel, nHeads, 4 * dModel, rng,
                         "amp.dec" + std::to_string(l));
}

void TransformerAR::checkWindow(Index window) const {
  if (window < 1 || window > seqLen_)
    throw std::invalid_argument("TransformerAR: window " + std::to_string(window) +
                                " outside [1, " + std::to_string(seqLen_) + "]");
}

const Real* TransformerAR::forwardTape(Tape& tape, TapeFrame& f,
                                       const int* tokens, Index rows,
                                       Index window,
                                       kernels::KernelPolicy policy) const {
  checkWindow(window);
  f.blocks.resize(blocks_.size());  // no-op reuse on warm tiles
  const Real* x = embed_.forwardTape(tape, tokens, rows, window);
  for (std::size_t l = 0; l < blocks_.size(); ++l)
    x = blocks_[l].forwardTape(tape, f.blocks[l], x, rows, window, policy);
  x = lnFinal_.forwardTape(tape, f.lnf, x, rows, policy);
  const Real* logits = head_.forwardTape(tape, f.head, x, rows, policy);
  f.tokens = tokens;
  f.rows = rows;
  f.window = window;
  return logits;
}

void TransformerAR::backwardTape(Tape& tape, const TapeFrame& f,
                                 const Real* dLogits) {
  Real* dx = lnFinal_.backwardTape(tape, f.lnf,
                                   head_.backwardTape(tape, f.head, dLogits));
  for (std::size_t l = blocks_.size(); l-- > 0;)
    dx = blocks_[l].backwardTape(tape, f.blocks[l], dx);
  embed_.backwardTape(f.tokens, f.rows, f.window, dx);
}

Index TransformerAR::tapeRealsPerSample(Index window) const {
  // Per row, in carve order.  Forward: embed d; per block ln1 2d+1, qkv 3d,
  // ctx d, proj d, h d, ln2 2d+1, ff1 f, gelu f, ff2 d, out d; lnFinal 2d+1,
  // head 4.  Backward: head d, lnFinal d; per block ff2 f (GELU' in place),
  // ff1 d, ln2 d, proj d, dQkv 3d, qkv d, ln1 d.  Per sample: each block's
  // [heads, window, window] attention weights.
  const Index d = d_, f = 4 * d_;  // ffDim, as the constructor builds it
  const auto nLayers = static_cast<Index>(blocks_.size());
  const Index perRow = 5 * d + 5 + nLayers * (20 * d + 3 * f + 2);
  return window * perRow + nLayers * heads_ * window * window;
}

void TransformerAR::beginDecode(DecodeState& state, Index batch,
                                kernels::KernelPolicy kernel) const {
  state.begin(batch, seqLen_, d_, static_cast<Index>(blocks_.size()), kernel);
}

const Real* TransformerAR::decodeStep(DecodeState& state,
                                      const std::vector<int>& tokens) const {
  if (static_cast<Index>(tokens.size()) != state.batch)
    throw std::invalid_argument("TransformerAR::decodeStep: token/batch mismatch");
  if (state.len >= state.maxLen)
    throw std::logic_error("TransformerAR::decodeStep: sequence capacity exhausted");
  const Index pos = state.len;
  const Index batch = state.batch;
  const Index nLayers = static_cast<Index>(blocks_.size());
  Tape& ws = state.ws;
  ws.reset();
  // Upper bound on this step's carve total (embed + per block: pre, h, qkv,
  // ctx, attnOut, h2, ln2out, f1 = 4d, f2 — 14d rows — + lnFinal h and out,
  // + the logits, + one cache line of alignment per span), so the first
  // step of a sweep grows the block once instead of overflowing span by span.
  ws.reserve(batch * (d_ * (3 + 14 * nLayers) + kOutcomes) + 8 * (10 * nLayers + 5));

  Real* x = ws.alloc(batch * d_);
  embed_.stepInto(tokens, pos, x);
  const Real* a = x;
  const Real* r = nullptr;  // residual stream split: block input = a (+ r)
  for (Index l = 0; l < nLayers; ++l) blocks_[l].decodeStep(a, r, state, l, &a, &r);
  ++state.len;

  // Final LayerNorm, fused with the last block's deferred residual, then the
  // head.
  Real* lnOut = ws.alloc(batch * d_);
  lnFinal_.forwardInto(a, r, r != nullptr ? ws.alloc(batch * d_) : nullptr, batch,
                       lnOut, state.kernel);
  Real* logits = ws.alloc(batch * kOutcomes);
  head_.forwardInto(lnOut, batch, logits, state.kernel);
  return logits;  // [B, 4]
}

void TransformerAR::collectParameters(std::vector<Parameter*>& out) {
  embed_.collectParameters(out);
  for (auto& b : blocks_) b.collectParameters(out);
  lnFinal_.collectParameters(out);
  head_.collectParameters(out);
}

// -------------------------------------------------------------- PhaseMlp ---

PhaseMlp::PhaseMlp(Index nQubits, Index hidden, Index nHidden, Rng& rng) {
  linears_.reserve(static_cast<std::size_t>(nHidden) + 1);
  Index in = nQubits;
  for (Index l = 0; l < nHidden; ++l) {
    linears_.emplace_back(in, hidden, rng, "phase.l" + std::to_string(l));
    in = hidden;
  }
  linears_.emplace_back(in, 1, rng, "phase.out");
}

const Real* PhaseMlp::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                  Index rows, kernels::KernelPolicy policy) const {
  f.linear.resize(linears_.size());  // no-op reuse on warm tiles
  const Real* cur = x;
  for (std::size_t l = 0; l < linears_.size(); ++l) {
    Real* y = linears_[l].forwardTape(tape, f.linear[l], cur, rows, policy);
    if (l + 1 < linears_.size())  // a hidden layer: tanh in place
      kernels::tanh(y, y, rows * linears_[l].w.shape[0], policy);
    cur = y;
  }
  return cur;  // [rows]
}

void PhaseMlp::backwardTape(Tape& tape, const TapeFrame& f,
                            const Real* dPhase) {
  const Real* d = dPhase;
  for (std::size_t l = linears_.size(); l-- > 1;) {
    Real* dx = linears_[l].backwardTape(tape, f.linear[l], d);
    // Linear l's input is layer l-1's tanh output a: dx *= tanh' = 1 - a².
    const Real* a = f.linear[l].x;
    const Index n = f.linear[l].rows * linears_[l].w.shape[1];
    for (Index i = 0; i < n; ++i) dx[i] = dx[i] * (1.0 - a[i] * a[i]);
    d = dx;
  }
  // Layer 0's input is the +-1 encoding: nothing reads its gradient.
  linears_.front().accumulateGrads(tape, f.linear.front(), d);
}

Index PhaseMlp::tapeRealsPerSample() const {
  // Each Linear carves y [out] forward (its tanh runs in place) and, but for
  // layer 0, dx [in] backward (tanh' is applied in place).
  Index n = -linears_.front().w.shape[1];
  for (const Linear& l : linears_) n += l.w.shape[0] + l.w.shape[1];
  return n;
}

void PhaseMlp::collectParameters(std::vector<Parameter*>& out) {
  for (auto& l : linears_) l.collectParameters(out);
}

}  // namespace nnqs::nn
