#include "vmc/local_energy.hpp"

#include <stdexcept>

namespace nnqs::vmc {

WavefunctionLut WavefunctionLut::build(const std::vector<Bits128>& samples,
                                       const std::vector<Complex>& psiValues) {
  if (samples.size() != psiValues.size())
    throw std::invalid_argument("WavefunctionLut::build: size mismatch");
  WavefunctionLut lut;
  lut.index.assign(samples);
  lut.psi = psiValues;
  return lut;
}

const Complex* WavefunctionLut::find(Bits128 x) const {
  const std::int32_t pos = index.find(x);
  return pos == SampleIndex::kNone ? nullptr : &psi[static_cast<std::size_t>(pos)];
}

std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocStats* stats,
                                   std::uint64_t* termsPerSample) {
  std::vector<Complex> eloc(samples.size());
  localEnergiesBatched(packed, samples, lut, eloc.data(), {}, stats, termsPerSample);
  return eloc;
}

}  // namespace nnqs::vmc
