#pragma once

#include <optional>
#include <vector>

#include "exec/policy.hpp"
#include "nqs/ansatz.hpp"
#include "nqs/sampler.hpp"
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

/// Engine variants benchmarked in Fig. 10 (enumerators in exec/policy.hpp,
/// the consolidated ExecutionPolicy home; this alias keeps the historical
/// vmc:: spelling).
using ElocMode = exec::ElocMode;

/// Sample-aware local energies for `samples` (a chunk of S) given the full
/// lookup table.  `made` is only needed for kBaseline; `net` for kBaseline's
/// psi inference, which goes through `QiankunNet::psi` (the tiled tape
/// forward on the kernel picked by `QiankunNet::setEvalPolicy`).  The
/// sample-aware modes read every psi from the LUT; the VMC driver fills it
/// from the BAS sweep's ln|Psi| and `QiankunNet::phases`, so no amplitude
/// forward runs in Stage 3.  `stats` (optional) receives the batched engine's
/// observability counters; it is reset to zero for the other modes.
/// `termsPerSample` (optional, samples.size() entries) receives each sample's
/// realized term count — the number of Pauli strings whose coupled state was
/// found in S, i.e. the per-sample share of ElocStats::coeffTerms.  Supported
/// by every sample-aware mode (zero-filled for kBaseline); this is the
/// measured cost signal the rank-level repartitioner balances.
std::vector<Complex> localEnergies(const ops::PackedHamiltonian& packed,
                                   const std::vector<Bits128>& samples,
                                   const WavefunctionLut& lut, ElocMode mode,
                                   const ops::MadePackedHamiltonian* made = nullptr,
                                   nqs::QiankunNet* net = nullptr,
                                   ElocStats* stats = nullptr,
                                   std::uint64_t* termsPerSample = nullptr);

}  // namespace nnqs::vmc
