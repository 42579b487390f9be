#include "vmc/local_energy.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace nnqs::vmc {

WavefunctionLut WavefunctionLut::build(const std::vector<Bits128>& samples,
                                       const std::vector<Complex>& psiValues) {
  if (samples.size() != psiValues.size())
    throw std::invalid_argument("WavefunctionLut::build: size mismatch");
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return samples[a] < samples[b]; });
  WavefunctionLut lut;
  lut.keys.reserve(samples.size());
  lut.psi.reserve(samples.size());
  for (std::size_t i : order) {
    // S must be a *set*: with duplicate keys, which psi find() returns would
    // depend on sort tie-breaking, and every engine would silently count the
    // duplicated configuration's terms once per copy toward <E>.
    if (!lut.keys.empty() && lut.keys.back() == samples[i])
      throw std::invalid_argument(
          "WavefunctionLut::build: duplicate sample key (S must be unique)");
    lut.keys.push_back(samples[i]);
    lut.psi.push_back(psiValues[i]);
  }
  return lut;
}

const Complex* WavefunctionLut::find(Bits128 x) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), x);
  if (it == keys.end() || !(*it == x)) return nullptr;
  return &psi[static_cast<std::size_t>(it - keys.begin())];
}

namespace {

/// Shared fused kernel for the SA engines: one pass over the unique XY
/// groups; `findPsi` abstracts the S-membership lookup strategy.  `terms`
/// (optional) receives the sample's realized term count — Pauli strings of
/// every group whose coupled state is in S, the same accounting as the
/// batched engine's ElocStats::coeffTerms.
template <typename FindPsi>
Complex elocSampleAware(const ops::PackedHamiltonian& h, Bits128 x, Complex psiX,
                        const FindPsi& findPsi, std::uint64_t* terms = nullptr) {
  Complex acc{h.constant, 0.0};
  if (terms != nullptr) *terms = 0;
  for (std::size_t k = 0; k < h.nGroups(); ++k) {
    const Bits128 xp = x ^ h.xyUnique[k];
    const Complex* psiXp = findPsi(xp);
    if (psiXp == nullptr) continue;  // sample-aware: skip x' outside S
    if (terms != nullptr)
      *terms += static_cast<std::uint64_t>(h.idxs[k + 1] - h.idxs[k]);
    const Real coef = h.groupCoefficient(k, x);
    if (coef == 0.0) continue;
    acc += coef * (*psiXp) / psiX;
  }
  return acc;
}

inline std::uint64_t* termSlot(std::uint64_t* terms, std::size_t i) {
  return terms == nullptr ? nullptr : terms + i;
}

/// kSaFuse: S kept as unpacked byte strings and searched linearly — the
/// pre-LUT stage of Fig. 10.
struct LinearByteSearch {
  int nQubits;
  std::vector<unsigned char> flat;  ///< [nS, nQubits] 0/1 bytes
  const std::vector<Complex>* psi;

  LinearByteSearch(const WavefunctionLut& lut, int n) : nQubits(n), psi(&lut.psi) {
    flat.resize(lut.size() * static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < lut.size(); ++i)
      for (int q = 0; q < n; ++q)
        flat[i * static_cast<std::size_t>(n) + static_cast<std::size_t>(q)] =
            lut.keys[i].get(q) ? 1 : 0;
  }

  const Complex* operator()(Bits128 x) const {
    unsigned char probe[128];
    for (int q = 0; q < nQubits; ++q) probe[q] = x.get(q) ? 1 : 0;
    const std::size_t nS = psi->size();
    for (std::size_t i = 0; i < nS; ++i) {
      if (std::memcmp(flat.data() + i * static_cast<std::size_t>(nQubits), probe,
                      static_cast<std::size_t>(nQubits)) == 0)
        return &(*psi)[i];
    }
    return nullptr;
  }
};

}  // namespace

std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocMode mode,
                                   const ops::MadePackedHamiltonian* made,
                                   nqs::QiankunNet* net, ElocStats* stats,
                                   std::uint64_t* termsPerSample) {
  if (stats != nullptr) *stats = ElocStats{};
  if (termsPerSample != nullptr)
    std::fill(termsPerSample, termsPerSample + samples.size(), 0);
  std::vector<Complex> eloc(samples.size());
  switch (mode) {
    case ElocMode::kBaseline: {
      if (made == nullptr || net == nullptr)
        throw std::invalid_argument("baseline engine needs MADE layout and network");
      std::vector<Bits128> coupled;
      std::vector<Real> coefs;
      coupled.reserve(made->nTerms());
      coefs.reserve(made->nTerms());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const Bits128 x = samples[i];
        const Complex psiX = *lut.find(x);
        // No sample-aware shortcut, no fusion — every Pauli string's coupled
        // state goes through network inference; but the per-sample states are
        // batched into ONE psi call so the network sees an inference batch
        // instead of nTerms single-row evaluations.
        coupled.clear();
        coefs.clear();
        for (std::size_t t = 0; t < made->nTerms(); ++t) {
          const Real phase = (made->yCount[t] % 4 == 2) ? -1.0 : 1.0;
          const Real coef =
              made->coeff[t] * phase * (parityAnd(x, made->yz[t]) ? -1.0 : 1.0);
          if (coef == 0.0) continue;
          coupled.push_back(x ^ made->xy[t]);
          coefs.push_back(coef);
        }
        const std::vector<Complex> psiXp = net->psi(coupled);
        Complex acc{made->constant, 0.0};
        for (std::size_t t = 0; t < coupled.size(); ++t)
          acc += coefs[t] * psiXp[t] / psiX;
        eloc[i] = acc;
      }
      return eloc;
    }
    case ElocMode::kSaFuse: {
      LinearByteSearch finder(lut, packed.nQubits);
      for (std::size_t i = 0; i < samples.size(); ++i)
        eloc[i] = elocSampleAware(packed, samples[i], *lut.find(samples[i]),
                                  finder, termSlot(termsPerSample, i));
      return eloc;
    }
    case ElocMode::kSaFuseLut: {
      auto finder = [&](Bits128 xp) { return lut.find(xp); };
      for (std::size_t i = 0; i < samples.size(); ++i)
        eloc[i] = elocSampleAware(packed, samples[i], *lut.find(samples[i]),
                                  finder, termSlot(termsPerSample, i));
      return eloc;
    }
    case ElocMode::kSaFuseLutParallel: {
      auto finder = [&](Bits128 xp) { return lut.find(xp); };
#pragma omp parallel for schedule(dynamic, 16)
      for (std::size_t i = 0; i < samples.size(); ++i)
        eloc[i] = elocSampleAware(packed, samples[i], *lut.find(samples[i]),
                                  finder, termSlot(termsPerSample, i));
      return eloc;
    }
    case ElocMode::kBatched: {
      localEnergiesBatched(packed, samples, lut, eloc.data(), {}, stats,
                           termsPerSample);
      return eloc;
    }
  }
  throw std::logic_error("localEnergies: unknown mode");
}

}  // namespace nnqs::vmc
