#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/policy.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "vmc/eloc_kernels.hpp"

namespace nnqs::vmc {

/// Sorted lookup table of the unique samples S with their wave-function
/// values (paper §3.4, techniques 4+5: sample-aware evaluation with the
/// samples stored as ordered integers for binary search).
struct WavefunctionLut {
  std::vector<Bits128> keys;  ///< ascending
  std::vector<Complex> psi;   ///< aligned with keys

  /// Sorts (sample, psi) pairs by sample.  The samples must be unique —
  /// duplicate keys would make find() results (and hence E_loc) depend on
  /// sort-order ties; throws std::invalid_argument on a duplicate, and when
  /// the two vectors differ in length.
  static WavefunctionLut build(const std::vector<Bits128>& samples,
                               const std::vector<Complex>& psiValues);
  /// Binary search; nullptr when x is not in S.
  [[nodiscard]] const Complex* find(Bits128 x) const;
  [[nodiscard]] std::size_t size() const { return keys.size(); }
};

/// The engine selector (enumerators in exec/policy.hpp, the consolidated
/// ExecutionPolicy home; this alias keeps the vmc:: spelling).
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
/// table of all of S.  runVmc fills the table from the BAS sweep's
/// ln|Psi| and `QiankunNet::phases`, so no amplitude forward runs here.
/// Every sample must be in the table; both engines throw
/// std::invalid_argument otherwise.  `stats` (optional) receives the
/// batched engine's observability counters (zeroed for kSaFuseLut).
/// `termsPerSample` (optional, samples.size() entries) receives each
/// sample's realized term count (localEnergy's `terms`), the measured cost
/// signal the rank-level repartitioner balances.
std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocMode mode,
                                   ElocStats* stats = nullptr,
                                   std::uint64_t* termsPerSample = nullptr);

/// The earlier 8-argument spelling, whose two removed arguments served the
/// baseline engine; perfbench/train.cpp still passes them as nullptr.
/// Delete it together with perfbench's replica of runVmc (ROADMAP G.3).
inline std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                          const std::vector<Bits128>& samples,
                                          const WavefunctionLut& lut, ElocMode mode,
                                          std::nullptr_t, std::nullptr_t,
                                          ElocStats* stats = nullptr,
                                          std::uint64_t* termsPerSample = nullptr) {
  return localEnergies(packed, samples, lut, mode, stats, termsPerSample);
}

}  // namespace nnqs::vmc
