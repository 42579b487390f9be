#include "nqs/ansatz.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nnqs::nqs {

namespace {
constexpr Real kLogZero = QiankunNet::kLogZeroAmp;

/// Masked softmax over the 4 outcome logits.  Shared by the decode and tape
/// paths so the two agree bit for bit.
void maskedSoftmax4(const Real* lg, const std::array<bool, 4>& mask, Real* out) {
  Real mx = -1e300;
  for (int t = 0; t < 4; ++t)
    if (mask[static_cast<std::size_t>(t)]) mx = std::max(mx, lg[t]);
  Real denom = 0;
  for (int t = 0; t < 4; ++t) {
    const Real p = mask[static_cast<std::size_t>(t)] ? std::exp(lg[t] - mx) : 0.0;
    out[t] = p;
    denom += p;
  }
  for (int t = 0; t < 4; ++t) out[t] /= denom;
}
}  // namespace

const char* unrepresentableField(const QiankunNetConfig& cfg) {
  if (cfg.nQubits < 2 || cfg.nQubits > 128 || cfg.nQubits % 2 != 0) return "nQubits";
  if (cfg.nAlpha < 0 || cfg.nAlpha > cfg.nQubits / 2) return "nAlpha";
  if (cfg.nBeta < 0 || cfg.nBeta > cfg.nQubits / 2) return "nBeta";
  if (cfg.dModel < 1 || cfg.dModel > (Index{1} << 12)) return "dModel";
  if (cfg.nHeads < 1 || cfg.dModel % cfg.nHeads != 0) return "nHeads";
  if (cfg.nDecoders < 0 || cfg.nDecoders > (Index{1} << 10)) return "nDecoders";
  if (cfg.phaseHidden < 1 || cfg.phaseHidden > (Index{1} << 14)) return "phaseHidden";
  if (cfg.phaseHiddenLayers < 0 || cfg.phaseHiddenLayers > (Index{1} << 10))
    return "phaseHiddenLayers";
  return nullptr;
}

Index parameterCount(const QiankunNetConfig& cfg) {
  using nn::TransformerAR;
  const Index d = cfg.dModel;
  // Amplitude: token and position embeddings, the decoder blocks, the final
  // LayerNorm and the head.
  Index n = (TransformerAR::kVocab + cfg.nQubits / 2) * d +
            cfg.nDecoders * (12 * d * d + 13 * d) + 2 * d + (d + 1) * TransformerAR::kOutcomes;
  // Phase: one weight and bias per layer, the last one to a single output.
  Index in = cfg.nQubits;
  for (Index l = 0; l < cfg.phaseHiddenLayers; ++l, in = cfg.phaseHidden)
    n += (in + 1) * cfg.phaseHidden;
  return n + in + 1;
}

namespace {
const QiankunNetConfig& checked(const QiankunNetConfig& cfg) {
  if (const char* field = unrepresentableField(cfg))
    throw std::invalid_argument(std::string("QiankunNet: ") + field +
                                " outside what the engine represents "
                                "(nqs::unrepresentableField)");
  return cfg;
}
}  // namespace

QiankunNet::QiankunNet(const QiankunNetConfig& cfg)
    : cfg_(checked(cfg)), rng_(cfg.seed),
      amplitude_(cfg.nQubits / 2, cfg.dModel, cfg.nHeads, cfg.nDecoders, rng_),
      phase_(cfg.nQubits, cfg.phaseHidden, cfg.phaseHiddenLayers, rng_) {
  amplitude_.collectParameters(params_);
  phase_.collectParameters(params_);
  nn::packParameters(params_, values_, grads_);
}

std::array<bool, 4> QiankunNet::outcomeMask(int s, int nUp, int nDown) const {
  std::array<bool, 4> mask{};
  const int stepsLeft = nSteps() - s - 1;  // steps after this one
  for (int t = 0; t < 4; ++t) {
    const int u = nUp + (t & 1), d = nDown + ((t >> 1) & 1);
    mask[static_cast<std::size_t>(t)] =
        u <= cfg_.nAlpha && d <= cfg_.nBeta &&
        (cfg_.nAlpha - u) <= stepsLeft && (cfg_.nBeta - d) <= stepsLeft;
  }
  return mask;
}

void QiankunNet::beginDecode(nn::DecodeState& state, int batch,
                             nn::kernels::KernelPolicy kernel) const {
  amplitude_.beginDecode(state, batch, kernel);
}

void QiankunNet::stepConditionals(nn::DecodeState& state,
                                  const std::vector<Bits128>& prefixes,
                                  std::vector<Real>& probs) const {
  const int s = static_cast<int>(state.len);
  const auto batch = static_cast<std::size_t>(state.batch);
  if (prefixes.size() != batch)
    throw std::invalid_argument("stepConditionals: prefixes/batch mismatch");
  // The feed lives in the state's scratch, so a warm sweep allocates nothing.
  state.tokenScratch.resize(batch);
  for (std::size_t b = 0; b < batch; ++b)
    state.tokenScratch[b] = s == 0 ? nn::TransformerAR::kBos : tokenOf(prefixes[b], s - 1);
  // [B, 4], carved from the state's tape (zero-allocation decode path).
  const Real* logits = amplitude_.decodeStep(state, state.tokenScratch);
  probs.resize(batch * 4);
  // Up qubits are the even ones, down qubits the odd ones.
  constexpr Bits128 kUp{0x5555555555555555ull, 0x5555555555555555ull};
  constexpr Bits128 kDown{0xAAAAAAAAAAAAAAAAull, 0xAAAAAAAAAAAAAAAAull};
  for (std::size_t b = 0; b < batch; ++b) {
    const auto mask = outcomeMask(s, (prefixes[b] & kUp).popcount(),
                                  (prefixes[b] & kDown).popcount());
    maskedSoftmax4(logits + b * 4, mask, probs.data() + b * 4);
  }
}

void QiankunNet::inputTokens(const Bits128* samples, Index count,
                             std::vector<int>& out) const {
  const auto L = static_cast<std::size_t>(nSteps());
  const auto n = static_cast<std::size_t>(count);
  out.resize(n * L);
  for (std::size_t b = 0; b < n; ++b) {
    out[b * L] = nn::TransformerAR::kBos;
    for (std::size_t s = 0; s + 1 < L; ++s)
      out[b * L + 1 + s] = tokenOf(samples[b], static_cast<int>(s));
  }
}

Real QiankunNet::foldLogAmp(const Real* lg, Bits128 sample, Real* pr,
                            Index prStride) const {
  int nUp = 0, nDown = 0;
  Real la = 0;
  for (int s = 0; s < nSteps(); ++s, lg += 4, pr += prStride) {
    const auto mask = outcomeMask(s, nUp, nDown);
    maskedSoftmax4(lg, mask, pr);
    const int chosen = tokenOf(sample, s);
    if (!mask[static_cast<std::size_t>(chosen)] || pr[chosen] <= 0.0)
      return kLogZero;  // outside the number-conserving support
    la += 0.5 * std::log(pr[chosen]);
    nUp += chosen & 1;
    nDown += (chosen >> 1) & 1;
  }
  return la;
}

Index QiankunNet::tapeTileRows(Index realsPerSample, Index batch) const {
  if (gradTileRows_ > 0) return gradTileRows_;
  if (gradTileRows_ < 0) return std::max<Index>(batch, 1);
  const auto bytesPerSample = realsPerSample * static_cast<Index>(sizeof(Real));
  return std::max<Index>(1, nn::TransformerAR::kGradTapeBudgetBytes / bytesPerSample);
}

void QiankunNet::evaluate(const std::vector<Bits128>& samples,
                          std::vector<Real>& logAmp, std::vector<Real>& phase,
                          nn::GradMode /*mode*/) {
  evaluateInto(evalSlot_, samples, logAmp, phase, evalKernel_);
}

const Real* QiankunNet::phaseForward(EvalSlot& slot,
                                     const std::vector<Bits128>& samples, Index t0,
                                     Index rows, nn::kernels::KernelPolicy kernel) const {
  nn::Tape& tape = slot.tapes.front().tape;
  tape.reset();
  Real* x = tape.alloc(rows * cfg_.nQubits);
  for (Index b = 0; b < rows; ++b)
    for (int q = 0; q < cfg_.nQubits; ++q)
      x[b * cfg_.nQubits + q] =
          samples[static_cast<std::size_t>(t0 + b)].get(q) ? 1.0 : -1.0;
  return phase_.forwardTape(tape, slot.phaseFrame, x, rows, kernel);
}

void QiankunNet::phases(const std::vector<Bits128>& samples,
                        std::vector<Real>& phase) {
  phasesInto(evalSlot_, samples, phase, evalKernel_);
}

void QiankunNet::phasesInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                            std::vector<Real>& phase,
                            nn::kernels::KernelPolicy kernel) const {
  const Index batch = static_cast<Index>(samples.size());
  phase.resize(samples.size());
  // The gradient's phase tiles, forward only, so no tile carves more than
  // evaluateGrad's.  GEMM rows and tanh elements do not depend on the rest
  // of the batch, so the tiles give the whole-batch forward's bits.
  const Index tile = tapeTileRows(gradTapeRealsPerSample().phase, batch);
  for (Index t0 = 0; t0 < batch; t0 += tile) {
    const Index tb = std::min(tile, batch - t0);
    const Real* ph = phaseForward(slot, samples, t0, tb, kernel);
    std::copy_n(ph, tb, phase.data() + t0);
  }
  // Close the last tile's carve cycle: a cold call's overflow chunks
  // coalesce now, so the next call of the same size allocates nothing.
  slot.tapes.front().tape.reset();
}

Complex QiankunNet::psiValue(Real logAmp, Real phase) {
  const Real a = (logAmp <= kLogZero) ? 0.0 : std::exp(logAmp);
  return Complex{a * std::cos(phase), a * std::sin(phase)};
}

std::vector<Complex> QiankunNet::psi(const std::vector<Bits128>& samples) {
  std::vector<Real> la, ph;
  evaluate(samples, la, ph);
  std::vector<Complex> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) out[i] = psiValue(la[i], ph[i]);
  return out;
}

void QiankunNet::seedLogitRow(Real seed, Bits128 sample, int s, const Real* pr,
                              Real* dl) const {
  // d ln|Psi| / d logits: ln|Psi| = 1/2 sum_s ln p_chosen ->
  // dlogit[t] = 1/2 seed * (delta_{t,chosen} - p_t) over the masked softmax.
  const int chosen = tokenOf(sample, s);
  for (int t = 0; t < 4; ++t) {
    if (pr[t] <= 0.0) continue;  // masked outcome: no gradient path
    dl[t] = 0.5 * seed * ((t == chosen ? 1.0 : 0.0) - pr[t]);
  }
}

QiankunNet::GradTapeCost QiankunNet::gradTapeRealsPerSample() const {
  const int L = nSteps();
  // On top of the sub-networks' own carves: the amplitude loop's masked
  // conditionals and logit seeds [L, 4] each, and the phase loop's encoded
  // input [nQubits].
  return {amplitude_.tapeRealsPerSample(L) + 2 * L * nn::TransformerAR::kOutcomes,
          phase_.tapeRealsPerSample() + cfg_.nQubits};
}

void QiankunNet::evaluateGrad(const std::vector<Bits128>& samples,
                              const std::vector<Real>& dLogAmp,
                              const std::vector<Real>& dPhase) {
  if (dLogAmp.size() != samples.size() || dPhase.size() != samples.size())
    throw std::invalid_argument("QiankunNet::evaluateGrad: seed/sample size mismatch");

  const int L = nSteps();
  const Index batch = static_cast<Index>(samples.size());
  const GradTapeCost cost = gradTapeRealsPerSample();
  nn::TransformerAR::EvalTape& et = evalSlot_.tapes.front();
  std::vector<int>& tokens = evalSlot_.tokens;

  // Tiles run SEQUENTIALLY in ascending order: every per-parameter
  // accumulation is a strictly sequential ascending-row fold that the tile
  // boundaries merely partition, so this ordering — not any tolerance — is
  // what makes every tile geometry give the same bits.  Parallelism stays
  // inside the per-tile kernels.  The amplitude and phase parameter sets are
  // disjoint, so each sub-network gets its own loop and its own tile size.
  const Index ampTile = tapeTileRows(cost.amplitude, batch);
  for (Index t0 = 0; t0 < batch; t0 += ampTile) {
    const Index tb = std::min(ampTile, batch - t0);
    const Index rows = tb * L;
    et.tape.reset();

    inputTokens(samples.data() + t0, tb, tokens);

    // Recompute this tile's teacher-forced forward onto the tape: only this
    // tile's activations exist (the previous tile's were released by the
    // reset above).  Per-row activations are batch-composition-independent,
    // so the logits equal a whole-batch forward's rows [t0, t0+tb).
    const Real* logits =
        amplitude_.forwardTape(et.tape, et.frame, tokens.data(), rows, L);

    // Masked conditionals + loss seeds for the tile, both tape-carved and
    // zero-filled: rows that leave the number-conserving support keep pr = 0
    // past the exit (no gradient).
    Real* probs = et.tape.alloc(rows * 4);
    std::fill_n(probs, rows * 4, Real{0});
    for (Index b = 0; b < tb; ++b)
      foldLogAmp(logits + b * L * 4, samples[static_cast<std::size_t>(t0 + b)],
                 probs + b * L * 4, 4);
    Real* dLogits = et.tape.alloc(rows * 4);
    std::fill_n(dLogits, rows * 4, Real{0});
    for (Index b = 0; b < tb; ++b) {
      const Real seed = dLogAmp[static_cast<std::size_t>(t0 + b)];
      if (seed == 0.0) continue;
      for (int s = 0; s < L; ++s)
        seedLogitRow(seed, samples[static_cast<std::size_t>(t0 + b)], s,
                     probs + (b * L + s) * 4, dLogits + (b * L + s) * 4);
    }
    amplitude_.backwardTape(et.tape, et.frame, dLogits);
  }

  const Index phaseTile = tapeTileRows(cost.phase, batch);
  for (Index t0 = 0; t0 < batch; t0 += phaseTile) {
    const Index tb = std::min(phaseTile, batch - t0);
    phaseForward(evalSlot_, samples, t0, tb, nn::kernels::KernelPolicy::kAuto);
    phase_.backwardTape(et.tape, evalSlot_.phaseFrame, dPhase.data() + t0);
  }
  // Close the last tile's carve cycle, so gradTapeStats() covers this step.
  et.tape.reset();
}

void QiankunNet::evaluateInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                              std::vector<Real>& logAmp, std::vector<Real>& phase,
                              nn::kernels::KernelPolicy kernel) const {
  const int L = nSteps();
  const Index batch = static_cast<Index>(samples.size());
  inputTokens(samples.data(), batch, slot.tokens);
  logAmp.resize(samples.size());
  // The amplitude loop's tiles of evaluateGrad, forward only.  Each tile's
  // logits are folded sample by sample as the tile finishes, so no
  // [B, L, 4] buffer materializes; tiles write disjoint entries of logAmp,
  // so tiles running in parallel need no lock.
  const Index tile = tapeTileRows(gradTapeRealsPerSample().amplitude, batch);
  amplitude_.evaluateTiled(slot.tapes, slot.tokens, batch, L, tile, kernel,
                           [&](Index t0, Index tb, const Real* logits) {
                             Real pr[4];
                             for (Index b = 0; b < tb; ++b) {
                               const auto row = static_cast<std::size_t>(t0 + b);
                               logAmp[row] =
                                   foldLogAmp(logits + b * L * 4, samples[row], pr, 0);
                             }
                           });
  phasesInto(slot, samples, phase, kernel);
}

void QiankunNet::flattenGradients(std::vector<Real>& out) const {
  out.assign(grads_.begin(), grads_.end());
}

void QiankunNet::loadGradients(const std::vector<Real>& in) {
  if (in.size() != grads_.size())
    throw std::invalid_argument(
        "QiankunNet::loadGradients: input length differs from the parameter "
        "count");
  std::copy(in.begin(), in.end(), grads_.begin());
}

}  // namespace nnqs::nqs
