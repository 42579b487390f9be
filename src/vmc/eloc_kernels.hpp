#pragma once

// Batched local-energy engine, the one behind vmc::localEnergies.  Tiles the
// samples, walks the Hamiltonian's unique-XY groups per tile, and searches
// each coupled state x' = x ^ m_k in S through the lookup table's hash index
// (vmc/sample_index.hpp), built once per table: H(x') is one XOR of two
// hashes, the Bloom filter retires the bulk of the coupled states (definite
// misses), and each survivor costs one probe of the index.  The found terms
// run through the batched sign-stream coefficients.
//
// Numerical contract: per-sample E_loc is *identical* (tolerance 0) to the
// per-sample kernel vmc::localEnergy over any exact lookup of S — each sample
// accumulates its surviving terms in the same ascending-group order with the
// same arithmetic; only the search strategy and the loop nesting differ.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "ops/packed_hamiltonian.hpp"

namespace nnqs::vmc {

struct WavefunctionLut;

/// Observability counters of one localEnergies call on the batched engine.
/// All counters are deterministic (independent of thread count and tile
/// scheduling order), and filterRejected + lutProbes == termsEnumerated.
struct ElocStats {
  std::uint64_t samples = 0;          ///< samples evaluated
  std::uint64_t termsEnumerated = 0;  ///< (sample, group) pairs enumerated
  /// Coupled states rejected by the membership prefilter (definite LUT
  /// misses — never probed).  With the sample-aware hit rate of a few
  /// percent, this is the bulk of the enumerated terms.
  std::uint64_t filterRejected = 0;
  std::uint64_t lutProbes = 0;        ///< prefilter survivors, each probed once
  /// Always 0: every survivor is probed, none is deduplicated.  Kept only
  /// because perfbench/train.cpp reads it; drop it with the next revision
  /// of that benchmark.
  std::uint64_t dedupedProbes = 0;
  std::uint64_t lutHits = 0;          ///< (sample, group) pairs found in S
  std::uint64_t coeffTerms = 0;       ///< Pauli strings sign-evaluated (hits)
  std::uint64_t nTiles = 0;           ///< sample tiles processed
  /// Per-tile coeffTerms spread: the term-count imbalance measure (the
  /// Fugaku load-balance signal; equal-sample tiles can carry very unequal
  /// term work, which is why the tile loop is dynamically scheduled and why
  /// rank-level repartitioning must split by term count).
  std::uint64_t tileTermsMin = 0;
  std::uint64_t tileTermsMax = 0;
};

/// Tuning knobs of the batched engine.  Tests shrink the tile to exercise
/// tile-boundary and ragged-tail paths at small sample counts.
struct ElocBatchedOptions {
  /// Samples per tile (the OpenMP scheduling unit); 0 = default (64).
  std::size_t sampleBlock = 0;
  /// Cap on the OpenMP team size; 0 = the OpenMP default.  The bench uses 1
  /// to report a single-core median next to the threaded one.
  int maxThreads = 0;
};

/// The batched engine core.  Writes E_loc of samples[i] to out[i] (out must
/// hold samples.size() entries).  Every sample must be present in the LUT
/// (sample-aware evaluation over a chunk of S); throws std::invalid_argument
/// otherwise.  After one warm call per thread with the same tile size and
/// Hamiltonian size, subsequent calls perform zero heap allocations
/// (persistent per-thread workspaces, caller-owned output) — asserted by
/// BM_ElocBatched.
/// `termsPerSample` (optional, samples.size() entries, caller-owned like
/// `out`) receives each sample's realized term count (its share of
/// ElocStats::coeffTerms) — deterministic across thread counts; the measured
/// signal behind the rank-level term repartitioner (vmc/repartition.hpp).
void localEnergiesBatched(const ops::PackedHamiltonian& packed,
                          const std::vector<Bits128>& samples,
                          const WavefunctionLut& lut, Complex* out,
                          const ElocBatchedOptions& opts = {},
                          ElocStats* stats = nullptr,
                          std::uint64_t* termsPerSample = nullptr);

}  // namespace nnqs::vmc
