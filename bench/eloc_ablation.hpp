#pragma once

// The rows of the Fig. 10 local-energy ablation that the VMC loop does not
// run.  The library keeps one engine (the batched one, the +BAT rows); the
// stages the paper stacks before it are built here on the library's
// per-sample fused kernel, vmc::localEnergy:
//  - elocBaseline: per Pauli string of the uncompressed Hamiltonian (the
//    per-string data of Ref. 27's layout, Fig. 6b), psi of every coupled
//    state by network inference; no fusion, no lookup table;
//  - elocSaFuse: the compressed layout with fused group coefficients,
//    sample-aware, but S searched linearly as byte strings;
//  - elocSortedTable: S stored as ordered integers for binary search (+LUT),
//    serially or with OpenMP threads over the samples (+PAR; Algorithm 2,
//    threads standing in for the CUDA kernel).
// Every sample must be in the lookup table.  SA+FUSE, +LUT and +PAR give the
// engine's bits; the baseline sums per string, so it agrees to rounding only.

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "nqs/ansatz.hpp"
#include "ops/hamiltonian.hpp"
#include "vmc/local_energy.hpp"

namespace nnqs::bench {

inline std::vector<Complex> elocBaseline(const ops::SpinHamiltonian& h,
                                         const std::vector<Bits128>& samples,
                                         const vmc::WavefunctionLut& lut,
                                         nqs::QiankunNet& net) {
  std::vector<Complex> eloc(samples.size());
  std::vector<Bits128> coupled;
  std::vector<Real> coefs;
  coupled.reserve(h.nTerms());
  coefs.reserve(h.nTerms());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Bits128 x = samples[i];
    const Complex psiX = *lut.find(x);
    // Every Pauli string's coupled state goes through network inference,
    // but one sample's states are batched into ONE psi call, so the network
    // sees an inference batch instead of nTerms single-row evaluations.
    coupled.clear();
    coefs.clear();
    for (std::size_t t = 0; t < h.nTerms(); ++t) {
      const ops::PauliString& p = h.strings[t];
      const Real phase = (p.yCount() % 4 == 2) ? -1.0 : 1.0;
      const Real coef = h.coeffs[t] * phase * (parityAnd(x, p.z) ? -1.0 : 1.0);
      if (coef == 0.0) continue;
      coupled.push_back(x ^ p.x);
      coefs.push_back(coef);
    }
    const std::vector<Complex> psiXp = net.psi(coupled);
    Complex acc{h.constant, 0.0};
    for (std::size_t t = 0; t < coupled.size(); ++t) acc += coefs[t] * psiXp[t] / psiX;
    eloc[i] = acc;
  }
  return eloc;
}

inline std::vector<Complex> elocSaFuse(const ops::PackedHamiltonian& packed,
                                       const std::vector<Bits128>& samples,
                                       const vmc::WavefunctionLut& lut) {
  // S kept as unpacked 0/1 byte strings, [|S|, nQubits], and searched
  // linearly: the lookup before the sorted table.
  const std::size_t n = static_cast<std::size_t>(packed.nQubits);
  const auto toBytes = [n](Bits128 x, unsigned char* out) {
    for (std::size_t q = 0; q < n; ++q) out[q] = x.get(static_cast<int>(q)) ? 1 : 0;
  };
  std::vector<unsigned char> flat(lut.size() * n);
  for (std::size_t i = 0; i < lut.size(); ++i) toBytes(lut.index.keys()[i], flat.data() + i * n);
  const auto findPsi = [&](Bits128 xp) -> const Complex* {
    unsigned char probe[128];
    toBytes(xp, probe);
    for (std::size_t i = 0; i < lut.size(); ++i)
      if (std::memcmp(flat.data() + i * n, probe, n) == 0) return &lut.psi[i];
    return nullptr;
  };
  std::vector<Complex> eloc(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    eloc[i] = vmc::localEnergy(packed, samples[i], *lut.find(samples[i]), findPsi);
  return eloc;
}

/// The lookup table's S as ordered integers for binary search: its keys
/// sorted ascending, each with its psi.  Built once, outside any timing.
struct SortedTable {
  std::vector<Bits128> keys;  ///< ascending
  std::vector<Complex> psi;   ///< aligned with keys

  explicit SortedTable(const vmc::WavefunctionLut& lut) {
    std::vector<std::size_t> order(lut.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::vector<Bits128>& k = lut.index.keys();
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return k[a] < k[b]; });
    for (const std::size_t i : order) {
      keys.push_back(k[i]);
      psi.push_back(lut.psi[i]);
    }
  }

  [[nodiscard]] const Complex* find(Bits128 x) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), x);
    if (it == keys.end() || *it != x) return nullptr;
    return &psi[static_cast<std::size_t>(it - keys.begin())];
  }
};

/// +LUT (`threads` false) and +PAR (`threads` true): per sample one fused
/// pass, every coupled state searched in the sorted table.
inline std::vector<Complex> elocSortedTable(const ops::PackedHamiltonian& packed,
                                            const std::vector<Bits128>& samples,
                                            const SortedTable& table, bool threads) {
  const auto findPsi = [&](Bits128 xp) { return table.find(xp); };
  std::vector<Complex> eloc(samples.size());
#pragma omp parallel for schedule(dynamic, 16) if (threads)
  for (std::size_t i = 0; i < samples.size(); ++i)
    eloc[i] = vmc::localEnergy(packed, samples[i], *table.find(samples[i]), findPsi);
  return eloc;
}

}  // namespace nnqs::bench
