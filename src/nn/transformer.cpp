#include "nn/transformer.hpp"

#include <cmath>
#include <stdexcept>

namespace nnqs::nn {

// ---------------------------------------------------------- DecoderBlock ---

DecoderBlock::DecoderBlock(Index dModel, Index nHeads, Index ffDim, Index seqLen,
                           Rng& rng, std::string name)
    : d_(dModel), ffDim_(ffDim),
      ln1_(dModel, name + ".ln1"), ln2_(dModel, name + ".ln2"),
      attn_(dModel, nHeads, seqLen, rng, name + ".attn"),
      ff1_(dModel, ffDim, rng, name + ".ff1"),
      ff2_(ffDim, dModel, rng, name + ".ff2"),
      gelu_(name + ".gelu") {}

Tensor DecoderBlock::forward(const Tensor& x, GradMode mode) {
  Tensor h = attn_.forward(ln1_.forward(x, mode), mode);
  for (std::size_t i = 0; i < h.data.size(); ++i) h.data[i] += x.data[i];
  Tensor f = ff2_.forward(gelu_.forward(ff1_.forward(ln2_.forward(h, mode), mode), mode), mode);
  for (std::size_t i = 0; i < f.data.size(); ++i) f.data[i] += h.data[i];
  return f;
}

const Real* DecoderBlock::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                      Index rows) {
  const Index n = rows * d_;
  // Same arithmetic sequence as the Tensor forward above — unfused LNs and
  // explicit residual adds — so the recomputed tile is bit-identical to the
  // monolithic activations (NOT the fused decodeStep kernels).
  const Real* ln1out = ln1_.forwardTape(tape, f.ln1, x, rows);
  const Real* attnOut = attn_.forwardTape(tape, f.attn, ln1out, rows);
  Real* h = tape.alloc(n);
  for (Index i = 0; i < n; ++i) h[i] = attnOut[i] + x[i];
  const Real* ln2out = ln2_.forwardTape(tape, f.ln2, h, rows);
  const Real* f1 = ff1_.forwardTape(tape, f.ff1, ln2out, rows);
  const Real* g = gelu_.forwardTape(tape, f.gelu, f1, rows * ffDim_);
  const Real* f2 = ff2_.forwardTape(tape, f.ff2, g, rows);
  Real* out = tape.alloc(n);
  for (Index i = 0; i < n; ++i) out[i] = f2[i] + h[i];
  f.x = x;
  f.h = h;
  f.rows = rows;
  return out;
}

void DecoderBlock::decodeStep(const Real* a, const Real* r, DecodeState& state,
                              Index layer, const Real** aOut, const Real** rOut) {
  const Index batch = state.batch;
  const Index n = batch * d_;
  Workspace& ws = state.ws;
  // Kernel calls below are inference forwards (modules.hpp invariant).
  ln1_.invalidate();
  ln2_.invalidate();
  gelu_.invalidate();

  // ln1, fused with the previous stage's deferred residual: materializes the
  // block input x = a + r (needed again as the attention residual) while the
  // mean partials accumulate.
  Real* pre = ws.alloc(n);
  const Real* xMat = a;  // block input; a itself when there is no residual
  kernels::ResidualLnArgs ln1;
  ln1.rows = batch;
  ln1.dim = d_;
  ln1.x = a;
  ln1.res = r;
  ln1.gamma = ln1_.gamma.value.data.data();
  ln1.beta = ln1_.beta.value.data.data();
  ln1.y = pre;
  if (r != nullptr) {
    Real* h = ws.alloc(n);
    ln1.h = h;
    xMat = h;
  }
  kernels::residualLayerNorm(ln1, state.kernel);

  Real* attnOut = ws.alloc(n);
  attn_.decodeStep(pre, batch, state, layer, attnOut);

  // ln2, fused with the attention residual: h2 = attnOut + x.
  Real* h2 = ws.alloc(n);
  Real* ln2out = ws.alloc(n);
  kernels::ResidualLnArgs ln2;
  ln2.rows = batch;
  ln2.dim = d_;
  ln2.x = attnOut;
  ln2.res = xMat;
  ln2.gamma = ln2_.gamma.value.data.data();
  ln2.beta = ln2_.beta.value.data.data();
  ln2.h = h2;
  ln2.y = ln2out;
  kernels::residualLayerNorm(ln2, state.kernel);

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

Tensor DecoderBlock::backward(const Tensor& dy) {
  Tensor dh = ln2_.backward(ff1_.backward(gelu_.backward(ff2_.backward(dy))));
  for (std::size_t i = 0; i < dh.data.size(); ++i) dh.data[i] += dy.data[i];
  Tensor dx = ln1_.backward(attn_.backward(dh));
  for (std::size_t i = 0; i < dx.data.size(); ++i) dx.data[i] += dh.data[i];
  return dx;
}

Real* DecoderBlock::backwardTape(Tape& tape, const TapeFrame& f,
                                 const Real* dy) {
  const Index n = f.rows * d_;
  // Mirror of backward() above, frame for cache: dh = ln2'(ff1'(gelu'(ff2'(dy))))
  // + dy; dx = ln1'(attn'(dh)) + dh — identical adds in identical order.
  Real* t = ff2_.backwardTape(tape, f.ff2, dy);
  t = gelu_.backwardTape(tape, f.gelu, t);
  t = ff1_.backwardTape(tape, f.ff1, t);
  Real* dh = ln2_.backwardTape(tape, f.ln2, t);
  for (Index i = 0; i < n; ++i) dh[i] += dy[i];
  Real* da = attn_.backwardTape(tape, f.attn, dh);
  Real* dx = ln1_.backwardTape(tape, f.ln1, da);
  for (Index i = 0; i < n; ++i) dx[i] += dh[i];
  return dx;
}

void DecoderBlock::invalidate() {
  ln1_.invalidate();
  attn_.invalidate();
  ln2_.invalidate();
  ff1_.invalidate();
  ff2_.invalidate();
  gelu_.invalidate();
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
    : seqLen_(seqLen), d_(dModel),
      embed_(kVocab, seqLen, dModel, rng, "amp.embed"),
      lnFinal_(dModel, "amp.lnf"),
      head_(dModel, kOutcomes, rng, "amp.head") {
  for (Index l = 0; l < nLayers; ++l)
    blocks_.push_back(std::make_unique<DecoderBlock>(
        dModel, nHeads, 4 * dModel, seqLen, rng, "amp.dec" + std::to_string(l)));
}

Tensor TransformerAR::forward(const std::vector<int>& tokens, Index window,
                              GradMode mode) {
  cachedWindow_ = window;
  Tensor x = embed_.forward(tokens, window, mode);
  for (auto& block : blocks_) {
    block->setWindow(window);
    x = block->forward(x, mode);
  }
  x = lnFinal_.forward(x, mode);
  return head_.forward(x, mode);
}

const Real* TransformerAR::forwardTape(Tape& tape, TapeFrame& f,
                                       const int* tokens, Index rows,
                                       Index window) {
  f.blocks.resize(blocks_.size());  // no-op reuse on warm tiles
  const Real* x = embed_.forwardTape(tape, tokens, rows, window);
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    blocks_[l]->setWindow(window);
    x = blocks_[l]->forwardTape(tape, f.blocks[l], x, rows);
  }
  x = lnFinal_.forwardTape(tape, f.lnf, x, rows);
  const Real* logits = head_.forwardTape(tape, f.head, x, rows);
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
    dx = blocks_[l]->backwardTape(tape, f.blocks[l], dx);
  embed_.backwardTape(f.tokens, f.rows, f.window, dx);
}

void TransformerAR::beginDecode(DecodeState& state, Index batch,
                                kernels::KernelPolicy kernel) const {
  state.begin(batch, seqLen_, d_, static_cast<Index>(blocks_.size()), kernel);
}

const Tensor& TransformerAR::decodeStep(DecodeState& state,
                                        const std::vector<int>& tokens) {
  if (static_cast<Index>(tokens.size()) != state.batch)
    throw std::invalid_argument("TransformerAR::decodeStep: token/batch mismatch");
  if (state.len >= state.maxLen)
    throw std::logic_error("TransformerAR::decodeStep: sequence capacity exhausted");
  const Index pos = state.len;
  const Index batch = state.batch;
  const Index nLayers = static_cast<Index>(blocks_.size());
  Workspace& ws = state.ws;
  ws.reset();
  // Upper bound on this step's carve total (embed + per block: pre, h, qkv,
  // ctx, attnOut, h2, ln2out, f1 = 4d, f2 — 14d rows — + lnFinal h and out,
  // + one cache line of alignment per span), so the first step of a sweep
  // grows the block once instead of overflowing span by span.
  ws.reserve(batch * d_ * (3 + 14 * nLayers) + 8 * (10 * nLayers + 4));

  Real* x = ws.alloc(batch * d_);
  embed_.stepInto(tokens, pos, x);
  const Real* a = x;
  const Real* r = nullptr;  // residual stream split: block input = a (+ r)
  for (Index l = 0; l < nLayers; ++l) blocks_[l]->decodeStep(a, r, state, l, &a, &r);
  ++state.len;

  // Final LayerNorm, fused with the last block's deferred residual.
  lnFinal_.invalidate();
  Real* lnOut = ws.alloc(batch * d_);
  kernels::ResidualLnArgs lnf;
  lnf.rows = batch;
  lnf.dim = d_;
  lnf.x = a;
  lnf.res = r;
  lnf.gamma = lnFinal_.gamma.value.data.data();
  lnf.beta = lnFinal_.beta.value.data.data();
  lnf.y = lnOut;
  if (r != nullptr) lnf.h = ws.alloc(batch * d_);
  kernels::residualLayerNorm(lnf, state.kernel);

  // Head logits into the state-owned output tensor (resize reuses capacity:
  // shrinks are free, growth only up to the sweep's high-water batch).
  state.logits.shape.assign({batch, Index{kOutcomes}});
  state.logits.data.resize(static_cast<std::size_t>(batch * kOutcomes));
  head_.forwardInto(lnOut, batch, state.logits.data.data(), state.kernel);
  return state.logits;  // [B, 4]
}

void TransformerAR::invalidateDecodeCaches() {
  for (auto& b : blocks_) b->invalidate();
  lnFinal_.invalidate();
  head_.invalidate();
  // Embedding::stepInto is const (it never caches), so embed_ needs no
  // clearing here; its cache only exists after a recording forward, which
  // the QiankunNet-level guard already pairs with exactly one backward.
}

void TransformerAR::backward(const Tensor& dLogits) {
  Tensor dx = lnFinal_.backward(head_.backward(dLogits));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
    dx = (*it)->backward(dx);
  embed_.backward(dx);
}

void TransformerAR::collectParameters(std::vector<Parameter*>& out) {
  embed_.collectParameters(out);
  for (auto& b : blocks_) b->collectParameters(out);
  lnFinal_.collectParameters(out);
  head_.collectParameters(out);
}

// -------------------------------------------------------------- PhaseMlp ---

PhaseMlp::PhaseMlp(Index nQubits, Index hidden, Index nHidden, Rng& rng) {
  Index in = nQubits;
  for (Index l = 0; l < nHidden; ++l) {
    layers_.push_back(std::make_unique<Linear>(in, hidden, rng,
                                               "phase.l" + std::to_string(l)));
    layers_.push_back(std::make_unique<TanhAct>("phase.tanh" + std::to_string(l)));
    in = hidden;
  }
  layers_.push_back(std::make_unique<Linear>(in, 1, rng, "phase.out"));
}

Tensor PhaseMlp::forward(const Tensor& x, GradMode mode) {
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h, mode);
  return h;  // [B, 1]
}

void PhaseMlp::forwardInto(Workspace& ws, const Real* x, Index rows, Real* out,
                           kernels::KernelPolicy policy) {
  // The caller owns the carve cycle (x itself may be carved from `ws`, so a
  // reset here would let the first layer's destination overlap its input).
  // Layer list is [Linear, Tanh]* + Linear (see the constructor): Linear
  // layers carve a fresh destination; tanh layers transform it in place with
  // kernels::tanh, as TanhAct::forward does, so the bits match.
  const Real* cur = x;
  Real* curMut = nullptr;
  Index width = 0;
  for (auto& l : layers_) {
    if (auto* lin = dynamic_cast<Linear*>(l.get())) {
      width = lin->w.value.shape[0];
      Real* y = ws.alloc(rows * width);
      lin->forwardInto(cur, rows, y, policy);
      cur = curMut = y;
    } else if (dynamic_cast<TanhAct*>(l.get()) != nullptr) {
      kernels::tanh(curMut, curMut, rows * width, policy);
    } else {
      throw std::logic_error("PhaseMlp::forwardInto: unsupported layer type");
    }
  }
  if (width != 1)
    throw std::logic_error("PhaseMlp::forwardInto: final layer width != 1");
  for (Index r = 0; r < rows; ++r) out[r] = cur[r];
}

const Real* PhaseMlp::forwardTape(Tape& tape, TapeFrame& f, const Real* x,
                                  Index rows) {
  std::size_t nLin = 0, nTanh = 0;
  for (auto& l : layers_)
    (dynamic_cast<Linear*>(l.get()) != nullptr) ? ++nLin : ++nTanh;
  f.linear.resize(nLin);  // no-op reuse on warm tiles
  f.tanh.resize(nTanh);
  const Real* cur = x;
  Index width = 0;
  std::size_t li = 0, ti = 0;
  for (auto& l : layers_) {
    if (auto* lin = dynamic_cast<Linear*>(l.get())) {
      cur = lin->forwardTape(tape, f.linear[li++], cur, rows);
      width = lin->w.value.shape[0];
    } else if (auto* th = dynamic_cast<TanhAct*>(l.get())) {
      cur = th->forwardTape(tape, f.tanh[ti++], cur, rows * width);
    } else {
      throw std::logic_error("PhaseMlp::forwardTape: unsupported layer type");
    }
  }
  if (width != 1)
    throw std::logic_error("PhaseMlp::forwardTape: final layer width != 1");
  f.rows = rows;
  return cur;  // [rows]
}

void PhaseMlp::backwardTape(Tape& tape, const TapeFrame& f,
                            const Real* dPhase) {
  const Real* d = dPhase;
  std::size_t li = f.linear.size(), ti = f.tanh.size();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if (auto* lin = dynamic_cast<Linear*>(it->get())) {
      d = lin->backwardTape(tape, f.linear[--li], d);
    } else if (auto* th = dynamic_cast<TanhAct*>(it->get())) {
      d = th->backwardTape(tape, f.tanh[--ti], d);
    } else {
      throw std::logic_error("PhaseMlp::backwardTape: unsupported layer type");
    }
  }
}

void PhaseMlp::invalidate() {
  for (auto& l : layers_) l->invalidate();
}

void PhaseMlp::backward(const Tensor& dPhase) {
  Tensor d = dPhase;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    d = (*it)->backward(d);
}

void PhaseMlp::collectParameters(std::vector<Parameter*>& out) {
  for (auto& l : layers_) l->collectParameters(out);
}

}  // namespace nnqs::nn
