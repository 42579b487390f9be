#pragma once

// Reference oracle of the amplitude network: the stateless full forward that
// the KV-cached decode engine, the tiled evaluate() and the fused sweep are
// checked against at tolerance 0.  Logits come from TransformerAR::forwardTape
// on a local Tape with no backward (the training kernels, every prefix re-read
// in full); the masked conditionals and ln|Psi| derived from them repeat the
// arithmetic of nqs/ansatz.cpp.  localEnergiesExact is the non-sample-aware
// E_loc reference for the vmc engines, adamwStep the optimizer update's, and
// exactGroundState the dense-space energy that cross-checks Jordan-Wigner
// against FCI.

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "linalg/davidson.hpp"
#include "nn/optimizer.hpp"
#include "nqs/ansatz.hpp"
#include "ops/hamiltonian.hpp"
#include "ops/packed_hamiltonian.hpp"

namespace nnqs::oracle {

/// Logits [B * window, 4] of B flattened token windows (BOS first).
inline std::vector<Real> logits(const nn::TransformerAR& net,
                                const std::vector<int>& tokens, Index window) {
  nn::Tape tape;
  nn::TransformerAR::TapeFrame frame;
  const auto rows = static_cast<Index>(tokens.size());
  const Real* lg = net.forwardTape(tape, frame, tokens.data(), rows, window);
  return {lg, lg + rows * 4};
}

/// pi(x_s | prefix) [4] from one position's logits, masked by the electron
/// counts (nUp, nDown) of the prefix.
inline std::array<Real, 4> maskedSoftmax(const nqs::QiankunNet& net, const Real* lg,
                                         int s, int nUp, int nDown) {
  const auto mask = net.outcomeMask(s, nUp, nDown);
  Real mx = -1e300, denom = 0;
  std::array<Real, 4> p{};
  for (std::size_t t = 0; t < 4; ++t)
    if (mask[t]) mx = std::max(mx, lg[t]);
  for (std::size_t t = 0; t < 4; ++t) {
    p[t] = mask[t] ? std::exp(lg[t] - mx) : 0.0;
    denom += p[t];
  }
  for (auto& v : p) v /= denom;
  return p;
}

/// Masked conditionals [B, 4] of B prefixes of length s (tokens flattened
/// [B, s]) with per-prefix (up, down) electron counts.
inline std::vector<Real> conditionals(const nqs::QiankunNet& net,
                                      const std::vector<int>& prefixes, int batch,
                                      int s,
                                      const std::vector<std::array<int, 2>>& counts) {
  const auto w = static_cast<std::size_t>(s) + 1;  // window [BOS, t_0 .. t_{s-1}]
  std::vector<int> tokens;
  for (std::size_t b = 0; b < static_cast<std::size_t>(batch); ++b) {
    tokens.push_back(nn::TransformerAR::kBos);
    tokens.insert(tokens.end(), prefixes.begin() + static_cast<long>(b * (w - 1)),
                  prefixes.begin() + static_cast<long>((b + 1) * (w - 1)));
  }
  const std::vector<Real> lg = logits(net.amplitude(), tokens, static_cast<Index>(w));
  std::vector<Real> probs;
  for (std::size_t b = 0; b < static_cast<std::size_t>(batch); ++b) {
    const auto p = maskedSoftmax(net, lg.data() + (b * w + w - 1) * 4, s,
                                 counts[b][0], counts[b][1]);
    probs.insert(probs.end(), p.begin(), p.end());
  }
  return probs;
}

/// ln|Psi| per sample: its tokens' masked log-conditionals folded in
/// ascending s, QiankunNet::kLogZeroAmp once it leaves the support.
inline std::vector<Real> logAmp(const nqs::QiankunNet& net,
                                const std::vector<Bits128>& samples) {
  const int L = net.nSteps();
  std::vector<int> tokens;
  for (const Bits128& x : samples) {
    tokens.push_back(nn::TransformerAR::kBos);
    for (int s = 0; s + 1 < L; ++s) tokens.push_back(net.tokenOf(x, s));
  }
  const std::vector<Real> lg = logits(net.amplitude(), tokens, L);
  std::vector<Real> out;
  for (std::size_t b = 0; b < samples.size(); ++b) {
    int nUp = 0, nDown = 0;
    Real la = 0;
    for (int s = 0; s < L; ++s) {
      const auto p = maskedSoftmax(net, lg.data() + (b * L + s) * 4, s, nUp, nDown);
      const int t = net.tokenOf(samples[b], s);
      const Real pt = p[static_cast<std::size_t>(t)];  // 0 when masked out
      if (pt <= 0.0) {
        la = nqs::QiankunNet::kLogZeroAmp;
        break;
      }
      la += 0.5 * std::log(pt);
      nUp += t & 1;
      nDown += (t >> 1) & 1;
    }
    out.push_back(la);
  }
  return out;
}

/// Exact (not sample-aware) local energies: every coupled state's psi is
/// evaluated with the network.  Reference implementation for tests and for
/// the bias study of the sample-aware scheme.
inline std::vector<Complex> localEnergiesExact(const ops::PackedHamiltonian& packed,
                                               const std::vector<Bits128>& samples,
                                               nqs::QiankunNet& net) {
  std::vector<Complex> eloc(samples.size());
  const std::vector<Complex> psiX = net.psi(samples);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Bits128 x = samples[i];
    // Gather all coupled states and their fused coefficients, then evaluate
    // psi in one batch.
    std::vector<Bits128> coupled;
    std::vector<Real> coefs;
    coupled.reserve(packed.nGroups());
    for (std::size_t k = 0; k < packed.nGroups(); ++k) {
      const Real coef = packed.groupCoefficient(k, x);
      if (coef == 0.0) continue;
      coupled.push_back(x ^ packed.xyUnique[k]);
      coefs.push_back(coef);
    }
    const std::vector<Complex> psiXp = net.psi(coupled);
    Complex acc{packed.constant, 0.0};
    for (std::size_t k = 0; k < coupled.size(); ++k)
      acc += coefs[k] * psiXp[k] / psiX[i];
    eloc[i] = acc;
  }
  return eloc;
}

/// AdamW step t over n parameters as one plain loop at learning rate lr,
/// zeroing the gradients: the tolerance-0 reference of kernels::adamw and
/// AdamW::step.
inline void adamwStep(const nn::AdamWOptions& o, Real lr, long t, std::size_t n,
                      Real* w, Real* g, Real* m, Real* v) {
  const Real bc1 = 1.0 - std::pow(o.beta1, static_cast<Real>(t));
  const Real bc2 = 1.0 - std::pow(o.beta2, static_cast<Real>(t));
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = o.beta1 * m[i] + (1.0 - o.beta1) * g[i];
    v[i] = o.beta2 * v[i] + (1.0 - o.beta2) * g[i] * g[i];
    const Real mhat = m[i] / bc1;
    const Real vhat = v[i] / bc2;
    w[i] -= lr * (mhat / (std::sqrt(vhat) + o.eps) + o.weightDecay * w[i]);
    g[i] = 0.0;
  }
}

/// y += H x over the full 2^n space (n <= ~24).  A pull sweep: each bra b
/// sums its own row, constant * x[b] and then c_i * <b|P_i|b ^ x_i> *
/// x[b ^ x_i] in ascending i, and only its thread writes y[b], so the result
/// does not depend on the OpenMP team.  Zero entries of x (all but one
/// particle-number sector in Davidson) are skipped before the phase is
/// formed.
inline void applyDense(const ops::SpinHamiltonian& h, const std::vector<Real>& x,
                       std::vector<Real>& y) {
  const std::size_t dim = std::size_t{1} << h.nQubits;
#pragma omp parallel for schedule(static)
  for (std::size_t bra = 0; bra < dim; ++bra) {
    const Bits128 braBits{static_cast<std::uint64_t>(bra), 0};
    Real acc = h.constant * x[bra];
    for (std::size_t i = 0; i < h.strings.size(); ++i) {
      const Bits128 ketBits = braBits ^ h.strings[i].x;
      const Real xv = x[ketBits.lo];
      if (xv == 0.0) continue;
      acc += h.coeffs[i] * ops::applyPhase(h.strings[i], ketBits).real() * xv;
    }
    y[bra] += acc;
  }
}

/// Ground-state energy of a small Hamiltonian via Davidson on the dense
/// 2^n-dimensional space, preconditioned by the dense diagonal.
inline Real exactGroundState(const ops::SpinHamiltonian& h) {
  const std::size_t dim = std::size_t{1} << h.nQubits;
  std::vector<Real> diag(dim);
#pragma omp parallel for schedule(static)
  for (std::size_t ket = 0; ket < dim; ++ket) {
    const Bits128 ketBits{static_cast<std::uint64_t>(ket), 0};
    Real d = h.constant;
    for (std::size_t i = 0; i < h.strings.size(); ++i) {
      if (h.strings[i].x.any()) continue;  // off-diagonal
      d += h.coeffs[i] * ops::applyPhase(h.strings[i], ketBits).real();
    }
    diag[ket] = d;
  }
  linalg::DavidsonOptions opts;
  opts.residualTol = 1e-9;
  opts.maxIterations = 400;
  return linalg::davidsonLowest(
             [&](const std::vector<Real>& x, std::vector<Real>& y) { applyDense(h, x, y); },
             diag, opts)
      .eigenvalue;
}

}  // namespace nnqs::oracle
