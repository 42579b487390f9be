#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "fci/fci.hpp"
#include "io/checkpoint.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/rhf.hpp"
#include "vmc/driver.hpp"

using namespace nnqs;
using namespace nnqs::vmc;

namespace {
struct System {
  ops::PackedHamiltonian packed;
  Real eHf, eFci;
  int nQubits, nAlpha, nBeta;
};

System buildSystem(const char* name) {
  const auto mol = chem::makeMolecule(name);
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  const auto mo = scf::transformToMo(ao, hf);
  const auto ham = ops::jordanWigner(mo);
  return {ops::PackedHamiltonian::fromHamiltonian(ham), hf.energy,
          fci::runFci(mo).energy, ham.nQubits, mo.nAlpha, mo.nBeta};
}

nqs::QiankunNetConfig netCfg(const System& s, std::uint64_t seed = 3) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = s.nQubits;
  cfg.nAlpha = s.nAlpha;
  cfg.nBeta = s.nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 64;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}
}  // namespace

TEST(Vmc, H2ConvergesToFci) {
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 250;
  opts.nSamples = 1 << 13;
  opts.nSamplesInitial = 1 << 12;
  opts.pretrainIterations = 30;
  opts.warmupSteps = 60;
  opts.seed = 11;
  const VmcResult res = runVmc(s.packed, netCfg(s), opts);
  // Must land below HF and within a few mHa of FCI for this 4-qubit system.
  EXPECT_LT(res.energy, s.eHf);
  EXPECT_NEAR(res.energy, s.eFci, 3e-3);
  EXPECT_GE(res.energy, s.eFci - 5e-3);  // variational up to SA/MC noise
}

TEST(Vmc, EnergyHistoryImproves) {
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 120;
  opts.nSamples = 1 << 12;
  opts.pretrainIterations = 20;
  opts.warmupSteps = 50;
  const VmcResult res = runVmc(s.packed, netCfg(s, 5), opts);
  Real early = 0, late = 0;
  for (int i = 10; i < 30; ++i) early += res.energyHistory[static_cast<std::size_t>(i)];
  for (int i = 100; i < 120; ++i) late += res.energyHistory[static_cast<std::size_t>(i)];
  EXPECT_LT(late / 20.0, early / 20.0);
}

TEST(Vmc, MultiRankMatchesSingleRankTrajectory) {
  // Same seed, same iteration count: the data-centric parallel scheme is an
  // exact reorganization of the serial computation up to sampling partition,
  // so multi-rank runs must converge to the same energy scale.
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 100;
  opts.nSamples = 1 << 12;
  opts.pretrainIterations = 20;
  opts.warmupSteps = 50;
  opts.seed = 21;
  const VmcResult one = runVmc(s.packed, netCfg(s, 9), opts);
  opts.nRanks = 4;
  opts.uniqueThresholdPerRank = 1;
  const VmcResult four = runVmc(s.packed, netCfg(s, 9), opts);
  EXPECT_LT(four.energy, s.eHf + 0.02);
  EXPECT_NEAR(four.energy, one.energy, 2e-2);
}

namespace {

/// Multi-rank VMC over both comm backends.  Threads spawn a 2-rank world;
/// MPI accepts the mpirun-launched size (1 when run directly) and skips
/// entirely in builds without NNQS_WITH_MPI.
class VmcBackendTest : public ::testing::TestWithParam<exec::CommBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == exec::CommBackend::kMpi && !parallel::mpiAvailable())
      GTEST_SKIP() << "built without NNQS_WITH_MPI";
  }
  [[nodiscard]] VmcOptions backendOptions() const {
    VmcOptions opts;
    opts.exec.comm = GetParam();
    opts.nRanks = GetParam() == exec::CommBackend::kMpi ? 0 : 2;
    return opts;
  }
};

}  // namespace

TEST_P(VmcBackendTest, CommunicationBytesAreCounted) {
  const System s = buildSystem("H2");
  VmcOptions opts = backendOptions();
  opts.iterations = 5;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  const VmcResult res = runVmc(s.packed, netCfg(s), opts);
  EXPECT_GT(res.commBytesPerIteration, 0u);
  // The Stage-6 gradient reduce-scatter and parameter allgather dominate:
  // 2 * M * 8 bytes per rank per iteration.
  EXPECT_GT(res.commBytesPerIteration,
            static_cast<std::uint64_t>(res.parameterCount) * 8);
}

TEST_P(VmcBackendTest, CommunicationBytesFollowTheStageFormula) {
  // Per iteration every rank receives the whole gathered set twice: 40 bytes
  // per sample in Stage 2 (sample, weight, psi) and 16 + 8 in Stage 3
  // (E_loc, term count).  Then come 2 * 3 * 8 bytes of the Stage-4 energy
  // reduce and 2 * 8 * M of the Stage-6 gradient reduce.  N_s doubles every
  // iteration, so N_u varies and the average must follow each iteration's.
  if (GetParam() != exec::CommBackend::kThreads)
    GTEST_SKIP() << "the observer reports N_u on process rank 0 only";
  const System s = buildSystem("H2");
  VmcOptions opts = backendOptions();
  opts.iterations = 6;
  opts.nSamplesInitial = 2;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  opts.growEvery = 1;
  std::vector<std::uint64_t> nu;
  opts.observer = [&](int, Real, std::size_t n) { nu.push_back(n); };
  for (const std::uint64_t p : {1, 3}) {
    opts.nRanks = static_cast<int>(p);
    nu.clear();
    const VmcResult res = runVmc(s.packed, netCfg(s), opts);
    ASSERT_EQ(nu.size(), 6u);
    EXPECT_LT(*std::min_element(nu.begin(), nu.end()),
              *std::max_element(nu.begin(), nu.end()));
    const auto m = static_cast<std::uint64_t>(res.parameterCount);
    std::uint64_t total = 0;
    for (const std::uint64_t n : nu) total += p * (64 * n + 48 + 16 * m);
    EXPECT_EQ(res.commBytesPerIteration, total / 6) << p << " ranks";
  }
}

TEST_P(VmcBackendTest, ShortRunConvergesAndReportsRankTerms) {
  const System s = buildSystem("H2");
  VmcOptions opts = backendOptions();
  opts.iterations = 30;
  opts.nSamples = 1 << 11;
  opts.pretrainIterations = 0;
  opts.warmupSteps = 30;
  opts.seed = 13;
  const VmcResult res = runVmc(s.packed, netCfg(s, 7), opts);
  ASSERT_EQ(res.energyHistory.size(), 30u);
  EXPECT_LT(res.energyHistory.back(), res.energyHistory.front());
  // The realized Stage-3 term work is surfaced per run; some rank did work.
  EXPECT_GT(res.rankTermsMax, 0u);
  EXPECT_GE(res.rankTermsMax, res.rankTermsMin);
}

INSTANTIATE_TEST_SUITE_P(Backends, VmcBackendTest,
                         ::testing::Values(exec::CommBackend::kThreads,
                                           exec::CommBackend::kMpi),
                         [](const auto& info) {
                           return info.param == exec::CommBackend::kThreads
                                      ? "threads"
                                      : "mpi";
                         });

TEST(Vmc, TermBalancedSplitIsBitIdenticalAcrossTileSizes) {
  // The split only moves *where* each gathered sample's local energy is
  // computed; per-sample values are chunk-independent and Stage 4 sums in
  // the unchanged per-rank local order, so the whole trajectory must not
  // depend on the tiles the split deals out.  LiH (12 qubits) at 4-sample
  // tiles gives the LPT packing real freedom, and the default 64-sample
  // tiles a genuinely different partition, not a no-op.
  const System s = buildSystem("LiH");
  VmcOptions opts;
  opts.iterations = 8;
  opts.nSamples = 1 << 11;
  opts.nSamplesInitial = 1 << 11;
  opts.pretrainIterations = 0;
  opts.nRanks = 3;
  opts.uniqueThresholdPerRank = 1;
  opts.seed = 29;
  opts.rankTileSize = 4;
  const VmcResult fine = runVmc(s.packed, netCfg(s, 15), opts);
  opts.rankTileSize = VmcOptions{}.rankTileSize;
  ASSERT_EQ(opts.rankTileSize, 64u);
  const VmcResult coarse = runVmc(s.packed, netCfg(s, 15), opts);
  ASSERT_EQ(fine.energyHistory.size(), coarse.energyHistory.size());
  for (std::size_t i = 0; i < fine.energyHistory.size(); ++i)
    EXPECT_EQ(fine.energyHistory[i], coarse.energyHistory[i]) << "iteration " << i;
  EXPECT_EQ(fine.energy, coarse.energy);
  EXPECT_EQ(fine.variance, coarse.variance);
  EXPECT_EQ(fine.nUnique, coarse.nUnique);
  EXPECT_GT(fine.rankTermsMax, 0u);
  // The partitions differ, so the ranks' realized term work does too.
  EXPECT_NE(std::make_pair(fine.rankTermsMin, fine.rankTermsMax),
            std::make_pair(coarse.rankTermsMin, coarse.rankTermsMax));
}

TEST(Vmc, FusedSweepAndTileGeometryLeaveTrajectoryBitIdentical) {
  // The sweep yields Stage 1's ln|Psi| as a sampling by-product, and the
  // tile knob only reorders *when* frontier rows are decoded, never what
  // they compute — so the whole multi-rank trajectory must match the
  // untiled runs bit for bit.
  const System s = buildSystem("LiH");
  VmcOptions opts;
  opts.iterations = 8;
  opts.nSamples = 1 << 11;
  opts.nSamplesInitial = 1 << 11;
  opts.pretrainIterations = 0;
  opts.nRanks = 3;
  opts.uniqueThresholdPerRank = 1;
  opts.seed = 29;
  const VmcResult ref = runVmc(s.packed, netCfg(s, 15), opts);  // default tiles

  auto expectSameTrajectory = [&](const VmcResult& got, const char* what) {
    ASSERT_EQ(ref.energyHistory.size(), got.energyHistory.size()) << what;
    for (std::size_t i = 0; i < ref.energyHistory.size(); ++i)
      EXPECT_EQ(ref.energyHistory[i], got.energyHistory[i])
          << what << " iteration " << i;
    EXPECT_EQ(ref.energy, got.energy) << what;
    EXPECT_EQ(ref.variance, got.variance) << what;
    EXPECT_EQ(ref.nUnique, got.nUnique) << what;
  };

  opts.exec.sweepTileRows = -1;  // untiled reference descent
  expectSameTrajectory(runVmc(s.packed, netCfg(s, 15), opts), "untiled");
  opts.exec.sweepTileRows = 7;  // ragged tiny tiles
  expectSameTrajectory(runVmc(s.packed, netCfg(s, 15), opts), "tileRows=7");
}

TEST(Vmc, PhaseTimingsPopulated) {
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 5;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  const VmcResult res = runVmc(s.packed, netCfg(s), opts);
  EXPECT_GT(res.secondsPerIteration.sampling, 0.0);
  EXPECT_GT(res.secondsPerIteration.localEnergy, 0.0);
  EXPECT_GT(res.secondsPerIteration.gradient, 0.0);
}

TEST(Vmc, ResumedPhaseTimesAverageTheIterationsRun) {
  // A resumed call times only the iterations it runs, so its per-iteration
  // gradient time is a fresh call's of the same length, not that spread over
  // the iterations before the checkpoint too (8x lower at 5 of 40).  With
  // the learning rate at 0 the net, and so the sample distribution and the
  // work per iteration, stay as they start.  A resume with no iterations
  // left reports zeros.
  const System s = buildSystem("LiH");
  const std::string path = ::testing::TempDir() + "/vmc_resume_times.ckpt";
  VmcOptions opts;
  opts.nSamples = 1 << 12;
  opts.nSamplesInitial = 1 << 12;
  opts.learningRate = 0.0;
  opts.pretrainIterations = 0;
  opts.iterations = 35;
  opts.checkpointEvery = 35;
  opts.checkpointPath = path;
  runVmc(s.packed, netCfg(s), opts);  // also warms the process for the two timed calls
  opts.checkpointEvery = 0;
  opts.checkpointPath.clear();
  opts.iterations = 5;
  const double fresh = runVmc(s.packed, netCfg(s), opts).secondsPerIteration.gradient;

  opts.resumeFrom = path;
  opts.iterations = 40;
  const double resumed = runVmc(s.packed, netCfg(s), opts).secondsPerIteration.gradient;
  EXPECT_GT(resumed, fresh / 4) << "fresh " << fresh << " s, resumed " << resumed << " s";
  EXPECT_LT(resumed, fresh * 4) << "fresh " << fresh << " s, resumed " << resumed << " s";

  opts.iterations = 35;
  const PhaseBreakdown none = runVmc(s.packed, netCfg(s), opts).secondsPerIteration;
  EXPECT_EQ(none.sampling, 0.0);
  EXPECT_EQ(none.localEnergy, 0.0);
  EXPECT_EQ(none.gradient, 0.0);
  EXPECT_EQ(none.other, 0.0);
}

TEST(Vmc, RejectsEmptyRuns) {
  // An empty run has no energy: zero iterations average an empty window and
  // zero samples give every sweep zero total weight, so both would be NaN.
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 0;
  EXPECT_THROW(runVmc(s.packed, netCfg(s), opts), std::invalid_argument);
  opts.iterations = 2;
  opts.nSamplesInitial = 0;
  EXPECT_THROW(runVmc(s.packed, netCfg(s), opts), std::invalid_argument);
}

TEST(Vmc, CheckpointResumeIsBitIdentical) {
  // A run interrupted at iteration k and resumed from its checkpoint must
  // retrace the uninterrupted trajectory bit for bit: the checkpoint captures
  // net weights, optimizer moments/step, the N_s schedule position, the
  // term-cost model and the energy-history prefix, and the per-iteration
  // sampler streams are keyed on (seed, iteration) alone.  At 3 ranks each
  // rank steps a third of the 11,317 parameters (an uneven split), so the
  // save must gather every rank's moment slice and the resume must hand each
  // rank its own.
  const System s = buildSystem("H2");
  const std::string path = ::testing::TempDir() + "/vmc_resume.ckpt";
  for (const int ranks : {1, 3}) {
    VmcOptions opts;
    opts.iterations = 12;
    opts.nSamples = 1 << 10;
    opts.nSamplesInitial = 1 << 10;
    opts.pretrainIterations = 0;
    opts.warmupSteps = 10;
    opts.seed = 17;
    opts.nRanks = ranks;
    const VmcResult full = runVmc(s.packed, netCfg(s, 23), opts);

    opts.iterations = 5;  // "interrupted" run: checkpoint lands after iter 5
    opts.checkpointEvery = 5;
    opts.checkpointPath = path;
    runVmc(s.packed, netCfg(s, 23), opts);

    opts.iterations = 12;
    opts.checkpointEvery = 0;
    opts.checkpointPath.clear();
    opts.resumeFrom = path;
    const VmcResult resumed = runVmc(s.packed, netCfg(s, 23), opts);

    ASSERT_EQ(full.energyHistory.size(), resumed.energyHistory.size());
    for (std::size_t i = 0; i < full.energyHistory.size(); ++i)
      EXPECT_EQ(full.energyHistory[i], resumed.energyHistory[i])
          << ranks << " ranks, iteration " << i;
    EXPECT_EQ(full.energy, resumed.energy) << ranks << " ranks";
    EXPECT_EQ(full.variance, resumed.variance) << ranks << " ranks";
    EXPECT_EQ(full.nUnique, resumed.nUnique) << ranks << " ranks";
  }
}

TEST(Vmc, CheckpointFromThreeRanksResumesAtTwo) {
  // The image stores whole moments, so a 2-rank run resumes from a 3-rank
  // run's checkpoint, each rank keeping its own half.  Trajectories at
  // different rank counts differ only by the order of the cross-rank sums
  // (the gathered sample set does not depend on the rank count), so the
  // resumed run stays within rounding of an uninterrupted 2-rank run; a
  // moment slice lost or misplaced in the hand-over moves the energies by
  // orders of magnitude more.
  const System s = buildSystem("H2");
  const std::string path = ::testing::TempDir() + "/vmc_resume_3to2.ckpt";
  VmcOptions opts;
  opts.iterations = 12;
  opts.nSamples = 1 << 10;
  opts.nSamplesInitial = 1 << 10;
  opts.pretrainIterations = 0;
  opts.warmupSteps = 10;
  opts.seed = 17;
  opts.nRanks = 2;
  const VmcResult full = runVmc(s.packed, netCfg(s, 23), opts);

  opts.nRanks = 3;
  opts.iterations = 5;
  opts.checkpointEvery = 5;
  opts.checkpointPath = path;
  const VmcResult three = runVmc(s.packed, netCfg(s, 23), opts);

  opts.nRanks = 2;
  opts.iterations = 12;
  opts.checkpointEvery = 0;
  opts.checkpointPath.clear();
  opts.resumeFrom = path;
  const VmcResult resumed = runVmc(s.packed, netCfg(s, 23), opts);

  ASSERT_EQ(resumed.energyHistory.size(), 12u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(resumed.energyHistory[i], three.energyHistory[i]) << "iteration " << i;
  for (std::size_t i = 5; i < 12; ++i)
    EXPECT_NEAR(resumed.energyHistory[i], full.energyHistory[i], 1e-12) << "iteration " << i;
}

TEST(Vmc, CheckpointOptionValidation) {
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 2;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  // checkpointEvery without a destination is a configuration error.
  opts.checkpointEvery = 1;
  EXPECT_THROW(runVmc(s.packed, netCfg(s), opts), std::invalid_argument);

  // Resuming under a different seed would silently change the trajectory the
  // checkpoint promises to continue — rejected with a typed schema error.
  const std::string path = ::testing::TempDir() + "/vmc_seedcheck.ckpt";
  opts.checkpointPath = path;
  opts.seed = 17;
  runVmc(s.packed, netCfg(s), opts);
  opts.checkpointEvery = 0;
  opts.checkpointPath.clear();
  opts.resumeFrom = path;
  opts.seed = 18;
  EXPECT_THROW(runVmc(s.packed, netCfg(s), opts), io::SchemaError);
  // Stored iteration beyond the requested run length is likewise rejected.
  opts.seed = 17;
  opts.iterations = 1;
  EXPECT_THROW(runVmc(s.packed, netCfg(s), opts), io::SchemaError);
}

TEST(Vmc, ResumeRejectsAnEmptySampleCount) {
  // A stored N_s of 0 would make every sweep empty and every energy NaN,
  // as nSamplesInitial = 0 would, and a stored default term cost of 0 breaks
  // the cost model's >= 1 contract: resume rejects each as a schema error
  // naming the section.
  const System s = buildSystem("H2");
  const std::string path = ::testing::TempDir() + "/vmc_nscheck.ckpt";
  VmcOptions opts;
  opts.iterations = 2;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  opts.checkpointEvery = 1;
  opts.checkpointPath = path;
  runVmc(s.packed, netCfg(s), opts);
  std::vector<std::uint8_t> written;
  {
    std::ifstream in(path, std::ios::binary);
    written.assign(std::istreambuf_iterator<char>(in), {});
  }
  opts.checkpointEvery = 0;
  opts.checkpointPath.clear();
  opts.resumeFrom = path;
  opts.iterations = 3;
  for (const std::string name : {"vmc.nsCurrent", "vmc.costDefault"}) {
    std::vector<std::uint8_t> image = written;
    // The u64 payload follows the section name and its 8-byte length.
    const auto at = std::search(image.begin(), image.end(), name.begin(), name.end());
    ASSERT_NE(at, image.end()) << name;
    const auto payload = at + static_cast<std::ptrdiff_t>(name.size()) + 8;
    std::fill(payload, payload + 8, std::uint8_t{0});
    const std::uint32_t crc = io::crc32(&*payload, 8);
    for (int i = 0; i < 4; ++i) payload[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
    }
    try {
      runVmc(s.packed, netCfg(s), opts);
      ADD_FAILURE() << "expected SchemaError for " << name;
    } catch (const io::SchemaError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(Vmc, NonFiniteEnergyStopsTheRunAtStage4) {
  // A NaN constant term makes every local energy NaN, so Stage 4's
  // allreduced energy is NaN on every rank at iteration 0: every rank throws
  // there, before any rank reaches a later collective, and the error names
  // the stage, the iteration, the rank and a NaN sample of that rank.
  System s = buildSystem("H2");
  s.packed.constant = std::numeric_limits<Real>::quiet_NaN();
  for (const int ranks : {1, 2}) {
    VmcOptions opts;
    opts.iterations = 3;
    opts.nSamples = opts.nSamplesInitial = 1 << 10;
    opts.nRanks = ranks;
    int observed = 0;
    opts.observer = [&](int, Real, std::size_t) { ++observed; };
    try {
      runVmc(s.packed, netCfg(s), opts);
      ADD_FAILURE() << ranks << " rank(s): the run did not throw";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.stage, "stage 4 (energy reduce)");
      EXPECT_EQ(e.iteration, 0);
      EXPECT_GE(e.rank, 0);
      EXPECT_LT(e.rank, ranks);
      ASSERT_TRUE(e.sample.has_value()) << e.what();
      EXPECT_EQ(e.sample->popcount(), s.nAlpha + s.nBeta);  // a sampled configuration
      const std::string what = e.what();
      EXPECT_NE(what.find("iteration 0, rank " + std::to_string(e.rank)), std::string::npos)
          << what;
      EXPECT_NE(what.find(toBitString(*e.sample, s.nQubits)), std::string::npos) << what;
    }
    EXPECT_EQ(observed, 0) << ranks << " rank(s)";
  }
}

TEST(Vmc, ObserverSeesEveryIteration) {
  const System s = buildSystem("H2");
  VmcOptions opts;
  opts.iterations = 7;
  opts.nSamples = 1 << 10;
  opts.pretrainIterations = 0;
  int calls = 0;
  opts.observer = [&](int, Real, std::size_t) { ++calls; };
  runVmc(s.packed, netCfg(s), opts);
  EXPECT_EQ(calls, 7);
}
