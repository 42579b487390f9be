// Batched local-energy engine.  See eloc_kernels.hpp for the contract.
//
// Work decomposition: samples are cut into tiles of `sampleBlock` rows; each
// tile walks the Hamiltonian's unique-XY groups in ascending order, and per
// group k the tile's rows in ascending order.  Row r's coupled state is
// x' = x_r ^ m_k (m_k = PackedHamiltonian::xyUnique[k]), searched in S
// through the lookup table's SampleIndex in two steps:
//
//   1. Prefilter — the index's blocked Bloom filter.  A clear bit is a
//      *guaranteed* miss (no false negatives), so the sample-aware regime's
//      dominant population — coupled states outside S, typically >95% of the
//      enumerated terms — is retired with one L1 load each.  The test is
//      branch-free and compacts the survivors (cand[n] = r; n += pass).
//   2. Index probe — each survivor (hits plus the filter's ~1-2% false
//      positives) probes the index's slot table once.
//
// The hash is linear under XOR, so H(x ^ m) = H(x) ^ H(m): H is computed
// once per call for every group mask and once per tile for every sample, so
// a term's hash costs one XOR, and its key is formed only when the filter
// passes.
//
//   3. Accumulation — the group's hit rows run through PackedHamiltonian::
//      groupCoefficients in one batched sign-stream pass, and each row
//      accumulates coef * psi(x') / psi(x).  Every sample receives its
//      surviving terms in exactly vmc::localEnergy's order, so per-sample
//      E_loc is bit-identical to the per-sample kernel.
//
// Scheduling: tiles are an OpenMP loop under schedule(dynamic, 1) — the
// Fugaku-identified imbalance is *term* work (hits per sample vary wildly
// across the sample set even though every sample enumerates the same
// groups), so idle threads steal whole tiles as they drain instead of
// owning a fixed sample range.  ElocStats records the realized per-tile
// term counts (min/max) to expose residual imbalance; the same measured
// term counts are what the rank-level repartitioner balances
// (vmc/repartition.hpp).

#include "vmc/eloc_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "vmc/local_energy.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nnqs::vmc {

namespace {

constexpr std::size_t kDefaultSampleBlock = 64;

/// Per-thread tile workspace.  All buffer sizes depend only on the tile
/// size, so one warm call sizes every vector to its steady state and the
/// warm path never allocates (thread_local lifetime, like the kernel scratch
/// in nn/kernels/dispatch.cpp).
struct TileWs {
  std::vector<std::uint64_t> hx;        ///< [rows] H of the tile's samples
  /// [rows] tile rows of a group's filter survivors, compacted in place to
  /// the rows of its hits
  std::vector<std::int32_t> cand;
  std::vector<Bits128> xsHit;           ///< [rows] gathered hit samples
  std::vector<std::int32_t> psiIdxHit;  ///< [rows] LUT index of each hit
  std::vector<Real> coefs;              ///< [rows] batched group coefficients
  std::vector<unsigned char> parity;    ///< [rows] sign-stream scratch
  std::vector<Complex> psiX;            ///< [rows] psi of the tile's samples

  void ensure(std::size_t rows) {
    if (hx.size() >= rows) return;
    hx.resize(rows);
    cand.resize(rows);
    xsHit.resize(rows);
    psiIdxHit.resize(rows);
    coefs.resize(rows);
    parity.resize(rows);
    psiX.resize(rows);
  }
};

TileWs& tileWs() {
  static thread_local TileWs ws;
  return ws;
}

}  // namespace

void localEnergiesBatched(const ops::PackedHamiltonian& packed,
                          const std::vector<Bits128>& samples,
                          const WavefunctionLut& lut, Complex* out,
                          const ElocBatchedOptions& opts, ElocStats* stats,
                          std::uint64_t* termsPerSample) {
  if (stats != nullptr) *stats = ElocStats{};
  const std::size_t n = samples.size();
  if (n == 0) return;

  const std::size_t nGroups = packed.nGroups();
  const std::size_t rowsCap =
      std::max<std::size_t>(1, opts.sampleBlock != 0 ? opts.sampleBlock
                                                     : kDefaultSampleBlock);
  const std::size_t nTiles = (n + rowsCap - 1) / rowsCap;

  int nThreads = 1;
#ifdef _OPENMP
  nThreads = opts.maxThreads > 0 ? opts.maxThreads : omp_get_max_threads();
#endif

  // The group masks' hashes, on the calling thread.  The team reads them
  // through this reference: named inside the region, a thread_local would
  // be each worker's own, empty vector.
  static thread_local std::vector<std::uint64_t> maskHashStore;
  maskHashStore.resize(nGroups);
  for (std::size_t k = 0; k < nGroups; ++k)
    maskHashStore[k] = SampleIndex::hash(packed.xyUnique[k]);
  const std::vector<std::uint64_t>& maskHash = maskHashStore;
  const SampleIndex& index = lut.index;

  ElocStats total;
  total.samples = n;
  total.nTiles = nTiles;
  total.tileTermsMin = std::numeric_limits<std::uint64_t>::max();
  // Thrown errors must not cross the parallel region; record and rethrow.
  std::atomic<bool> sampleMissing{false};

#pragma omp parallel num_threads(nThreads)
  {
    // Sized at region entry (not per tile) so every team member warms its
    // workspace on the first call even if dynamic scheduling assigns it no
    // tile — the zero-allocation warm path is then thread-schedule-proof.
    TileWs& ws = tileWs();
    ws.ensure(rowsCap);
    ElocStats local;
    local.tileTermsMin = std::numeric_limits<std::uint64_t>::max();

#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
    for (std::ptrdiff_t tile = 0; tile < static_cast<std::ptrdiff_t>(nTiles);
         ++tile) {
      const std::size_t i0 = static_cast<std::size_t>(tile) * rowsCap;
      const std::size_t rows = std::min(rowsCap, n - i0);
      const Bits128* xs = samples.data() + i0;

      bool tileOk = true;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t h = SampleIndex::hash(xs[r]);
        const std::int32_t pos = index.find(xs[r], h);
        if (pos == SampleIndex::kNone) {
          sampleMissing.store(true, std::memory_order_relaxed);
          tileOk = false;
          break;
        }
        ws.hx[r] = h;
        ws.psiX[r] = lut.psi[static_cast<std::size_t>(pos)];
        out[i0 + r] = Complex{packed.constant, 0.0};
        if (termsPerSample != nullptr) termsPerSample[i0 + r] = 0;
      }
      if (!tileOk) continue;

      std::uint64_t probes = 0, hits = 0, coeffTerms = 0;
      for (std::size_t k = 0; k < nGroups; ++k) {
        // 1. Prefilter: compact the rows whose coupled state may be in S.
        const std::uint64_t hm = maskHash[k];
        std::size_t nCand = 0;
        for (std::size_t r = 0; r < rows; ++r) {
          ws.cand[nCand] = static_cast<std::int32_t>(r);
          nCand += index.mayContain(ws.hx[r] ^ hm);
        }
        probes += nCand;

        // 2. One index probe per survivor; the hits keep their row order.
        const Bits128 mask = packed.xyUnique[k];
        std::size_t m = 0;
        for (std::size_t j = 0; j < nCand; ++j) {
          const auto r = static_cast<std::size_t>(ws.cand[j]);
          const std::int32_t pos = index.find(xs[r] ^ mask, ws.hx[r] ^ hm);
          if (pos == SampleIndex::kNone) continue;
          ws.cand[m] = ws.cand[j];
          ws.xsHit[m] = xs[r];
          ws.psiIdxHit[m] = pos;
          ++m;
        }
        if (m == 0) continue;
        hits += m;

        // 3. Batched coefficients + ascending-group accumulation.
        packed.groupCoefficients(k, ws.xsHit.data(), m, ws.coefs.data(),
                                 ws.parity.data());
        const auto groupTerms =
            static_cast<std::uint64_t>(packed.idxs[k + 1] - packed.idxs[k]);
        coeffTerms += static_cast<std::uint64_t>(m) * groupTerms;
        if (termsPerSample != nullptr)
          for (std::size_t j = 0; j < m; ++j)
            termsPerSample[i0 + static_cast<std::size_t>(ws.cand[j])] +=
                groupTerms;
        for (std::size_t j = 0; j < m; ++j) {
          const Real coef = ws.coefs[j];
          if (coef == 0.0) continue;
          const auto r = static_cast<std::size_t>(ws.cand[j]);
          out[i0 + r] += coef *
                         lut.psi[static_cast<std::size_t>(ws.psiIdxHit[j])] /
                         ws.psiX[r];
        }
      }

      const auto terms = static_cast<std::uint64_t>(rows) * nGroups;
      local.termsEnumerated += terms;
      local.filterRejected += terms - probes;
      local.lutProbes += probes;
      local.lutHits += hits;
      local.coeffTerms += coeffTerms;
      local.tileTermsMin = std::min(local.tileTermsMin, coeffTerms);
      local.tileTermsMax = std::max(local.tileTermsMax, coeffTerms);
    }

#pragma omp critical(nnqs_eloc_stats)
    {
      total.termsEnumerated += local.termsEnumerated;
      total.filterRejected += local.filterRejected;
      total.lutProbes += local.lutProbes;
      total.lutHits += local.lutHits;
      total.coeffTerms += local.coeffTerms;
      total.tileTermsMin = std::min(total.tileTermsMin, local.tileTermsMin);
      total.tileTermsMax = std::max(total.tileTermsMax, local.tileTermsMax);
    }
  }

  if (sampleMissing.load(std::memory_order_relaxed))
    throw std::invalid_argument(
        "localEnergiesBatched: sample not found in the wavefunction LUT "
        "(the batched engine is sample-aware and expects samples from S)");
  if (total.tileTermsMin == std::numeric_limits<std::uint64_t>::max())
    total.tileTermsMin = 0;
  if (stats != nullptr) *stats = total;
}

}  // namespace nnqs::vmc
