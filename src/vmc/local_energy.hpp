#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/policy.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "vmc/eloc_kernels.hpp"
#include "vmc/sample_index.hpp"

namespace nnqs::vmc {

/// Lookup table of the unique samples S with their wave-function values
/// (paper §3.4, techniques 4+5: sample-aware evaluation with a lookup table
/// of S).  The samples are found through the hash index, in the order given.
struct WavefunctionLut {
  SampleIndex index;         ///< S, in the order given to build()
  std::vector<Complex> psi;  ///< psi[i] belongs to index.keys()[i]

  /// Indexes the samples with their psi.  The samples must be unique, since a
  /// duplicate would count its terms once per copy toward <E>: throws
  /// std::invalid_argument on a duplicate, and when the two vectors differ in
  /// length.
  static WavefunctionLut build(const std::vector<Bits128>& samples,
                               const std::vector<Complex>& psiValues);
  /// psi of x, or nullptr when x is not in S.
  [[nodiscard]] const Complex* find(Bits128 x) const;
  [[nodiscard]] std::size_t size() const { return index.size(); }
};

/// One local-energy engine, the batched one (eloc_kernels.hpp); the enum
/// lives in exec/policy.hpp and this alias keeps the vmc:: spelling.
using ElocMode = exec::ElocMode;

/// Fused sample-aware local energy of one sample x with amplitude psiX
/// (paper §3.4): one pass over the unique XY groups of the compressed
/// layout, each coupled state x' = x ^ xyUnique[k] looked up through
/// `findPsi(x')` (a `const Complex*`, nullptr when x' is outside S, whose
/// terms are skipped).  The terms accumulate in ascending group order, the
/// order every engine keeps, so any exact lookup gives the same bits.
/// `terms` (optional) receives the sample's realized term count — Pauli
/// strings of every group whose coupled state is in S, the same accounting
/// as the batched engine's ElocStats::coeffTerms.
template <typename FindPsi>
Complex localEnergy(const ops::PackedHamiltonian& h, Bits128 x, Complex psiX,
                    const FindPsi& findPsi, std::uint64_t* terms = nullptr) {
  Complex acc{h.constant, 0.0};
  if (terms != nullptr) *terms = 0;
  for (std::size_t k = 0; k < h.nGroups(); ++k) {
    const Complex* psiXp = findPsi(x ^ h.xyUnique[k]);
    if (psiXp == nullptr) continue;
    if (terms != nullptr) *terms += static_cast<std::uint64_t>(h.idxs[k + 1] - h.idxs[k]);
    const Real coef = h.groupCoefficient(k, x);
    if (coef == 0.0) continue;
    acc += coef * (*psiXp) / psiX;
  }
  return acc;
}

/// Sample-aware local energies of `samples` (a chunk of S) given the lookup
/// table of all of S, on the batched engine (localEnergiesBatched with its
/// default options).  runVmc fills the table from the BAS sweep's ln|Psi|
/// and `QiankunNet::phases`, so no amplitude forward runs here.  Every
/// sample must be in the table; throws std::invalid_argument otherwise.
/// `stats` (optional) receives the engine's observability counters.
/// `termsPerSample` (optional, samples.size() entries) receives each
/// sample's realized term count (localEnergy's `terms`), the measured cost
/// signal the rank-level repartitioner balances.
std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocStats* stats = nullptr,
                                   std::uint64_t* termsPerSample = nullptr);

/// The earlier 8-argument spelling, whose engine selector and two removed
/// arguments (they served the baseline engine) perfbench/train.cpp still
/// passes.  Delete it together with perfbench's replica of runVmc (ROADMAP
/// G.3).
inline std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                          const std::vector<Bits128>& samples,
                                          const WavefunctionLut& lut, ElocMode,
                                          std::nullptr_t, std::nullptr_t,
                                          ElocStats* stats = nullptr,
                                          std::uint64_t* termsPerSample = nullptr) {
  return localEnergies(packed, samples, lut, stats, termsPerSample);
}

}  // namespace nnqs::vmc
