#include "vmc/local_energy.hpp"

#include <algorithm>
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

std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocMode mode,
                                   ElocStats* stats, std::uint64_t* termsPerSample) {
  std::vector<Complex> eloc(samples.size());
  if (mode == ElocMode::kBatched) {
    localEnergiesBatched(packed, samples, lut, eloc.data(), {}, stats, termsPerSample);
    return eloc;
  }
  if (stats != nullptr) *stats = ElocStats{};
  const auto findPsi = [&](Bits128 xp) { return lut.find(xp); };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Complex* psiX = lut.find(samples[i]);
    if (psiX == nullptr)
      throw std::invalid_argument(
          "localEnergies: sample not found in the wavefunction LUT "
          "(the engines are sample-aware and expect samples from S)");
    eloc[i] = localEnergy(packed, samples[i], *psiX, findPsi,
                          termsPerSample == nullptr ? nullptr : termsPerSample + i);
  }
  return eloc;
}

}  // namespace nnqs::vmc
