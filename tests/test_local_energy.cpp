#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/rhf.hpp"
#include "oracle.hpp"
#include "vmc/local_energy.hpp"

using namespace nnqs;
using namespace nnqs::vmc;

namespace {

struct System {
  ops::PackedHamiltonian packed;
  ops::MadePackedHamiltonian made;
  ops::SpinHamiltonian ham;
  scf::MoIntegrals mo;
  Real eHf;
};

System buildSystem(const char* name) {
  const auto mol = chem::makeMolecule(name);
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  System s{.packed = {}, .made = {}, .ham = {}, .mo = scf::transformToMo(ao, hf), .eHf = hf.energy};
  s.ham = ops::jordanWigner(s.mo);
  s.packed = ops::PackedHamiltonian::fromHamiltonian(s.ham);
  s.made = ops::MadePackedHamiltonian::fromHamiltonian(s.ham);
  return s;
}

std::vector<Bits128> numberSector(int n, int na, int nb) {
  std::vector<Bits128> out;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits128 b{v, 0};
    int up = 0, down = 0;
    for (int q = 0; q < n; q += 2) up += b.get(q);
    for (int q = 1; q < n; q += 2) down += b.get(q);
    if (up == na && down == nb) out.push_back(b);
  }
  return out;
}

/// Runs the batched engine and kSaFuseLut over `samples` and asserts equal
/// E_loc and term counts at tolerance 0; returns the batched counters.
ElocStats expectBatchedEqualsLut(const ops::PackedHamiltonian& packed,
                                 const std::vector<Bits128>& samples,
                                 const WavefunctionLut& lut,
                                 const ElocBatchedOptions& opts) {
  std::vector<std::uint64_t> refTerms(samples.size()), terms(samples.size());
  const auto ref = localEnergies(packed, samples, lut, ElocMode::kSaFuseLut,
                                 nullptr, nullptr, nullptr, refTerms.data());
  std::vector<Complex> out(samples.size());
  ElocStats stats;
  localEnergiesBatched(packed, samples, lut, out.data(), opts, &stats,
                       terms.data());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(ref[i].real(), out[i].real()) << "i=" << i;
    EXPECT_EQ(ref[i].imag(), out[i].imag()) << "i=" << i;
    EXPECT_EQ(refTerms[i], terms[i]) << "i=" << i;
  }
  EXPECT_EQ(stats.filterRejected + stats.lutProbes, stats.termsEnumerated);
  return stats;
}

nqs::QiankunNet netFor(const System& s, std::uint64_t seed = 9) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = s.ham.nQubits;
  cfg.nAlpha = s.mo.nAlpha;
  cfg.nBeta = s.mo.nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = seed;
  return nqs::QiankunNet(cfg);
}

}  // namespace

TEST(WavefunctionLut, BuildAndFind) {
  std::vector<Bits128> keys = {Bits128{5, 0}, Bits128{1, 0}, Bits128{9, 0}};
  std::vector<Complex> psi = {{0.5, 0}, {0.1, 0}, {0.9, 0}};
  const auto lut = WavefunctionLut::build(keys, psi);
  EXPECT_EQ(lut.size(), 3u);
  EXPECT_TRUE(std::is_sorted(lut.keys.begin(), lut.keys.end()));
  ASSERT_NE(lut.find(Bits128{9, 0}), nullptr);
  EXPECT_NEAR(lut.find(Bits128{9, 0})->real(), 0.9, 1e-15);
  EXPECT_EQ(lut.find(Bits128{2, 0}), nullptr);
}

TEST(Lut, BuildRejectsMismatchedLengths) {
  // One psi per sample: a shorter psi vector would be read past its end, a
  // longer one would silently drop values.
  const std::vector<Bits128> keys = {Bits128{5, 0}, Bits128{1, 0}, Bits128{9, 0}};
  const std::vector<Complex> two = {{0.5, 0}, {0.1, 0}};
  const std::vector<Complex> four = {{0.5, 0}, {0.1, 0}, {0.9, 0}, {0.3, 0}};
  EXPECT_THROW(WavefunctionLut::build(keys, two), std::invalid_argument);
  EXPECT_THROW(WavefunctionLut::build(keys, four), std::invalid_argument);
}

TEST(LocalEnergy, FullSupportAverageEqualsVariationalEnergy) {
  // Over the complete number sector, sum_x p(x) Eloc(x) = <H> exactly.
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);
  const auto eloc =
      localEnergies(s.packed, sector, lut, ElocMode::kSaFuseLut);

  Complex num{0, 0};
  Real denom = 0;
  for (std::size_t i = 0; i < sector.size(); ++i) {
    const Real p = std::norm(psi[i]);
    num += p * eloc[i];
    denom += p;
  }
  const Real eVar = (num / denom).real();

  // Reference <psi|H|psi>/<psi|psi> via explicit matrix elements.
  Complex ref{0, 0};
  for (std::size_t i = 0; i < sector.size(); ++i)
    for (std::size_t j = 0; j < sector.size(); ++j)
      ref += std::conj(psi[i]) * s.ham.matrixElement(sector[i], sector[j]) * psi[j];
  EXPECT_NEAR(eVar, ref.real() / denom, 1e-8);
}

TEST(LocalEnergy, AllEnginesAgreeOnFullSupport) {
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  const std::vector<Bits128> probe(sector.begin(), sector.begin() + 12);
  const auto a = localEnergies(s.packed, probe, lut, ElocMode::kSaFuse);
  const auto b = localEnergies(s.packed, probe, lut, ElocMode::kSaFuseLut);
  const auto c = localEnergies(s.packed, probe, lut, ElocMode::kSaFuseLutParallel);
  const auto d = localEnergies(s.packed, probe, lut, ElocMode::kBaseline, &s.made, &net);
  const auto e = oracle::localEnergiesExact(s.packed, probe, net);
  const auto f = localEnergies(s.packed, probe, lut, ElocMode::kBatched);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(b[i] - c[i]), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(b[i] - d[i]), 0.0, 1e-8);
    EXPECT_NEAR(std::abs(b[i] - e[i]), 0.0, 1e-8);
    // The batched engine's contract is tolerance ZERO against kSaFuseLut.
    EXPECT_EQ(b[i].real(), f[i].real());
    EXPECT_EQ(b[i].imag(), f[i].imag());
  }
}

TEST(LocalEnergy, BatchedBitIdenticalAcrossGeometriesAndThreads) {
  // The batched engine must produce bit-identical per-sample E_loc for every
  // tile geometry (ragged tails, tile-boundary sizes, single-probe blocks)
  // and every thread count — the accumulation order per sample is fixed by
  // the ascending group walk, not by the work decomposition.
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);
  const auto ref = localEnergies(s.packed, sector, lut, ElocMode::kSaFuseLut);

  std::vector<Complex> out(sector.size());
  for (const std::size_t sampleBlock : {std::size_t{1}, std::size_t{3},
                                        std::size_t{4}, std::size_t{64},
                                        sector.size(), sector.size() + 7}) {
    for (const int maxThreads : {1, 2, 3, 5}) {
      ElocBatchedOptions opts;
      opts.sampleBlock = sampleBlock;
      opts.maxThreads = maxThreads;
      ElocStats stats;
      localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &stats);
      for (std::size_t i = 0; i < sector.size(); ++i) {
        ASSERT_EQ(ref[i].real(), out[i].real())
            << "sampleBlock=" << sampleBlock << " threads=" << maxThreads
            << " i=" << i;
        ASSERT_EQ(ref[i].imag(), out[i].imag());
      }
      // Counters are deterministic: independent of threads and tiling
      // except for the tile-geometry-dependent ones.
      EXPECT_EQ(stats.samples, sector.size());
      EXPECT_EQ(stats.termsEnumerated, sector.size() * s.packed.nGroups());
      EXPECT_GT(stats.lutHits, 0u);
      EXPECT_LE(stats.lutProbes, stats.termsEnumerated);
    }
  }
}

TEST(LocalEnergy, BatchedStatsDeterministicWithoutDedup) {
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  std::vector<Complex> out(sector.size());
  ElocStats one, two;
  ElocBatchedOptions opts;
  opts.maxThreads = 1;
  localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &one);
  opts.maxThreads = 4;
  localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &two);
  // Sum/min/max merges are commutative: identical counters at any team size.
  EXPECT_EQ(one.lutProbes, two.lutProbes);
  EXPECT_EQ(one.dedupedProbes, two.dedupedProbes);
  EXPECT_EQ(one.lutHits, two.lutHits);
  EXPECT_EQ(one.coeffTerms, two.coeffTerms);
  EXPECT_EQ(one.tileTermsMin, two.tileTermsMin);
  EXPECT_EQ(one.tileTermsMax, two.tileTermsMax);
  // Every prefilter survivor is probed once: nothing is deduplicated, and
  // each enumerated term is either rejected by the filter or probed.
  EXPECT_EQ(one.dedupedProbes, 0u);
  for (const ElocStats* st : {&one, &two}) {
    EXPECT_EQ(st->filterRejected + st->lutProbes, st->termsEnumerated);
    EXPECT_LE(st->lutHits, st->lutProbes);
  }
  EXPECT_LE(one.tileTermsMin, one.tileTermsMax);
}

TEST(LocalEnergy, BatchedPartialSectorLutMissPath) {
  // With a partial S, the batched engine must skip exactly the coupled
  // states outside S — same truncation as kSaFuseLut, bit for bit.
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  // S = every other state of the sector (stays sorted).
  std::vector<Bits128> partial;
  std::vector<Complex> partialPsi;
  for (std::size_t i = 0; i < sector.size(); i += 2) {
    partial.push_back(sector[i]);
    partialPsi.push_back(psi[i]);
  }
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  const auto ref = localEnergies(s.packed, partial, lut, ElocMode::kSaFuseLut);
  std::vector<Complex> out(partial.size());
  ElocBatchedOptions opts;
  opts.sampleBlock = 5;  // ragged tiles over the miss-heavy path
  localEnergiesBatched(s.packed, partial, lut, out.data(), opts, nullptr);
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(ref[i].real(), out[i].real());
    EXPECT_EQ(ref[i].imag(), out[i].imag());
  }
}

TEST(LocalEnergy, BatchedEmptyAndSingleSample) {
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  const std::vector<Bits128> none;
  ElocStats stats;
  localEnergiesBatched(s.packed, none, lut, nullptr, {}, &stats);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.nTiles, 0u);
  EXPECT_EQ(stats.tileTermsMin, 0u);

  const std::vector<Bits128> one{sector[1]};
  const auto ref = localEnergies(s.packed, one, lut, ElocMode::kSaFuseLut);
  Complex out;
  localEnergiesBatched(s.packed, one, lut, &out, {}, nullptr);
  EXPECT_EQ(ref[0].real(), out.real());
  EXPECT_EQ(ref[0].imag(), out.imag());
}

TEST(LocalEnergy, BatchedThrowsOnSampleOutsideS) {
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  // LUT without the last sector state; asking for its E_loc must throw.
  const std::vector<Bits128> partial(sector.begin(), sector.end() - 1);
  const std::vector<Complex> partialPsi(psi.begin(), psi.end() - 1);
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  std::vector<Complex> out(1);
  EXPECT_THROW(localEnergiesBatched(s.packed, {sector.back()}, lut, out.data()),
               std::invalid_argument);
}

TEST(LocalEnergy, BatchedSmallAndPowerOfTwoLuts) {
  // LUTs of 1, 2 and 3 keys give the smallest index tables (2, 4 and 8
  // slots), where probes wrap around the table end; 128 = 2^7 keys fill a
  // power-of-two table exactly half.  Several windows of the sector vary
  // which slots the keys land in.
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  for (const std::size_t size : {1, 2, 3, 128}) {
    for (const std::size_t offset : {0, 17, 40, 97}) {
      const auto first = static_cast<std::ptrdiff_t>(offset);
      const auto last = static_cast<std::ptrdiff_t>(offset + size);
      const std::vector<Bits128> keys(sector.begin() + first,
                                      sector.begin() + last);
      const std::vector<Complex> vals(psi.begin() + first, psi.begin() + last);
      const auto lut = WavefunctionLut::build(keys, vals);
      for (const int maxThreads : {1, 4}) {
        ElocBatchedOptions opts;
        opts.sampleBlock = 2;
        opts.maxThreads = maxThreads;
        SCOPED_TRACE(testing::Message() << "size=" << size << " offset="
                                        << offset << " threads=" << maxThreads);
        const ElocStats st = expectBatchedEqualsLut(s.packed, keys, lut, opts);
        EXPECT_EQ(st.samples, size);
      }
    }
  }
}

TEST(LocalEnergy, BatchedWiderThan64Qubits) {
  // A synthetic 96-qubit system: XY masks, YZ masks and samples use both
  // words of Bits128 (some masks only the high word), so the keys, the group
  // masks and their hashes all take the high-word path.  S contains coupled
  // states of every sample, so the terms hit across both words.
  constexpr int kQubits = 96;
  Rng rng(5);
  auto randomBits = [&](int count, int lo, int hi) {
    Bits128 b;
    while (b.popcount() < count)
      b.set(lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo))));
    return b;
  };
  ops::SpinHamiltonian ham;
  ham.nQubits = kQubits;
  ham.constant = -1.25;
  std::vector<Bits128> masks;
  for (int g = 0; g < 30; ++g) {
    // Group 0 is diagonal; then low-word, high-word and straddling masks.
    const Bits128 x = g == 0       ? Bits128{}
                      : g % 3 == 0 ? randomBits(2 + 2 * (g % 2), 0, 64)
                      : g % 3 == 1 ? randomBits(2 + 2 * (g % 2), 64, kQubits)
                                   : randomBits(4, 56, 72);
    if (std::find(masks.begin(), masks.end(), x) != masks.end()) continue;
    masks.push_back(x);
    for (int t = 0; t < 3; ++t) {
      // Z outside x, plus an even number of Y positions inside x.
      Bits128 z = randomBits(3, 0, kQubits) & (x ^ Bits128::lowMask(kQubits));
      if (t == 1 && x.popcount() >= 2) {
        int placed = 0;
        for (int q = 0; q < kQubits && placed < 2; ++q)
          if (x.get(q)) {
            z.set(q);
            ++placed;
          }
      }
      ham.strings.push_back({x, z});
      ham.coeffs.push_back(rng.uniform() - 0.5);
    }
  }
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(ham);

  std::vector<Bits128> keys;
  for (int i = 0; i < 40; ++i) {
    const Bits128 x = randomBits(24, 0, kQubits);
    keys.push_back(x);
    for (std::size_t g = 1; g < masks.size(); g += 1 + static_cast<std::size_t>(i % 3))
      keys.push_back(x ^ masks[g]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Complex> vals;
  for (std::size_t i = 0; i < keys.size(); ++i)
    vals.emplace_back(0.1 + rng.uniform(), rng.uniform() - 0.5);
  const auto lut = WavefunctionLut::build(keys, vals);

  for (const std::size_t sampleBlock : {std::size_t{1}, std::size_t{7},
                                        std::size_t{0}}) {
    for (const int maxThreads : {1, 4}) {
      ElocBatchedOptions opts;
      opts.sampleBlock = sampleBlock;
      opts.maxThreads = maxThreads;
      SCOPED_TRACE(testing::Message() << "sampleBlock=" << sampleBlock
                                      << " threads=" << maxThreads);
      const ElocStats st = expectBatchedEqualsLut(packed, keys, lut, opts);
      // Far more hits than the diagonal group alone supplies.
      EXPECT_GT(st.lutHits, 2 * keys.size());
    }
  }
}

TEST(WavefunctionLut, BuildRejectsDuplicateKeys) {
  // Regression: build() used to silently accept duplicate samples, making
  // find() results depend on sort tie-breaking.
  std::vector<Bits128> keys = {Bits128{5, 0}, Bits128{1, 0}, Bits128{5, 0}};
  std::vector<Complex> psi = {{0.5, 0}, {0.1, 0}, {0.7, 0}};
  EXPECT_THROW(WavefunctionLut::build(keys, psi), std::invalid_argument);
}

TEST(LocalEnergy, SampleAwareIsTruncationOfExact) {
  // With a partial S the sample-aware value differs from the exact one by
  // exactly the terms whose coupled state lies outside S.
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  // S = first two states only.
  const std::vector<Bits128> partial(sector.begin(), sector.begin() + 2);
  const std::vector<Complex> partialPsi(psi.begin(), psi.begin() + 2);
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  const auto sa = localEnergies(s.packed, {partial[0]}, lut, ElocMode::kSaFuseLut);

  Complex manual{s.packed.constant, 0};
  for (std::size_t k = 0; k < s.packed.nGroups(); ++k) {
    const Bits128 xp = partial[0] ^ s.packed.xyUnique[k];
    const Complex* hit = lut.find(xp);
    if (hit == nullptr) continue;
    manual += s.packed.groupCoefficient(k, partial[0]) * (*hit) / psi[0];
  }
  EXPECT_NEAR(std::abs(sa[0] - manual), 0.0, 1e-12);
}

TEST(LocalEnergy, HartreeFockStateGivesHfEnergy) {
  // For a wavefunction concentrated on the HF determinant, Eloc(HF det)
  // equals <HF|H|HF> when S = {HF det} (only the diagonal survives).
  const System s = buildSystem("BeH2");
  const Bits128 hfDet = fci::hartreeFockDeterminant(s.mo.nAlpha, s.mo.nBeta);
  const auto lut = WavefunctionLut::build({hfDet}, {Complex{1.0, 0.0}});
  const auto eloc = localEnergies(s.packed, {hfDet}, lut, ElocMode::kSaFuseLut);
  EXPECT_NEAR(eloc[0].real(), s.eHf, 1e-8);
  EXPECT_NEAR(eloc[0].imag(), 0.0, 1e-10);
}

TEST(LocalEnergy, FciStateGivesConstantLocalEnergy) {
  // Property: for an exact eigenstate, Eloc(x) = E_0 for every x in the
  // support.  Feed the FCI ground state through the LUT.
  const System s = buildSystem("H2");
  const auto fciRes = fci::runFci(s.mo);
  std::vector<Complex> psi(fciRes.basis.size());
  for (std::size_t i = 0; i < psi.size(); ++i)
    psi[i] = Complex{fciRes.groundState[i], 0.0};
  const auto lut = WavefunctionLut::build(fciRes.basis, psi);
  const auto eloc = localEnergies(s.packed, fciRes.basis, lut, ElocMode::kSaFuseLut);
  for (std::size_t i = 0; i < eloc.size(); ++i) {
    if (std::abs(psi[i]) < 1e-6) continue;  // ratio ill-conditioned at nodes
    EXPECT_NEAR(eloc[i].real(), fciRes.energy, 1e-6);
    EXPECT_NEAR(eloc[i].imag(), 0.0, 1e-8);
  }
}
