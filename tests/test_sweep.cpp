// BasSweepEngine contracts: bit-identical sample sets across tile geometries
// and rank partitions; fused ln|Psi| equal to a separate evaluate() and to
// the full-forward oracle bit for bit; zero heap allocations on a warm
// sweep; and the cumulative SweepStats invariant (tiling moves zero K/V
// bytes beyond the untiled sweep's split copies).  Plus the sweep's phase
// complement, QiankunNet::phases(): equal to evaluate()'s phase bit for bit
// and allocation-free once warm.

#include <gtest/gtest.h>

#include <map>

#include "alloc_count.hpp"
#include "nqs/sampler.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {

QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 5;
  return cfg;
}

void expectSameSet(const SampleSet& a, const SampleSet& b, const char* what) {
  ASSERT_EQ(a.nUnique(), b.nUnique()) << what;
  ASSERT_EQ(a.logAmp.size(), a.nUnique()) << what;
  ASSERT_EQ(b.logAmp.size(), b.nUnique()) << what;
  for (std::size_t i = 0; i < a.nUnique(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << what << " sample " << i;
    EXPECT_EQ(a.weights[i], b.weights[i]) << what << " weight " << i;
    EXPECT_EQ(a.logAmp[i], b.logAmp[i]) << what << " logAmp " << i;
  }
}

SampleSet sweepCopy(QiankunNet& net, const SamplerOptions& opts) {
  BasSweepEngine engine(net);
  return engine.sweep(opts);
}

}  // namespace

TEST(Sweep, TileGeometryIsBitIdentical) {
  // Untiled reference vs ragged tiny tiles, the default, one huge tile, and
  // tile == 1 (maximal deferral): identical sample sets, weights, ln|Psi|.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  opts.exec.sweepTileRows = -1;
  const SampleSet ref = sweepCopy(net, opts);
  EXPECT_EQ(ref.totalWeight(), opts.nSamples);
  EXPECT_EQ(ref.logAmp.size(), ref.samples.size());  // always filled

  for (int tileRows : {1, 5, 0, 1 << 20}) {
    opts.exec.sweepTileRows = tileRows;
    const SampleSet got = sweepCopy(net, opts);
    expectSameSet(ref, got, tileRows == 0 ? "default" : "tiled");
  }
}

TEST(Sweep, FusedLogAmpMatchesSeparateEvaluate) {
  // The fusion contract: SampleSet::logAmp must equal a separate evaluate()
  // over the same samples, and the full-forward oracle's ln|Psi| of them,
  // bit for bit — tiled and untiled.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  for (int tileRows : {0, -1, 3}) {
    opts.exec.sweepTileRows = tileRows;
    const SampleSet s = sweepCopy(net, opts);
    ASSERT_EQ(s.logAmp.size(), s.nUnique());
    std::vector<Real> la, ph;
    net.evaluate(s.samples, la, ph);
    const std::vector<Real> ref = oracle::logAmp(net, s.samples);
    for (std::size_t i = 0; i < s.nUnique(); ++i) {
      EXPECT_EQ(s.logAmp[i], la[i]) << "tileRows " << tileRows << " sample " << i;
      EXPECT_EQ(s.logAmp[i], ref[i]) << "tileRows " << tileRows << " sample " << i;
    }
  }
}

TEST(Sweep, ParallelUnionEqualsSerialExactly) {
  // Per-node RNG substreams make rank partitioning draw-invariant: the union
  // of the per-rank sets is the serial sweep *exactly* — same samples, same
  // weights, same fused ln|Psi| — not just in totals.
  const int ranks = 4;
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  const SampleSet serial = sweepCopy(net, opts);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<std::uint64_t, Real>>
      unionSet;
  for (int r = 0; r < ranks; ++r) {
    BasSweepEngine engine(net);
    const SampleSet& s = engine.sweep(opts, r, ranks, 8);
    for (std::size_t i = 0; i < s.nUnique(); ++i) {
      const auto [it, inserted] = unionSet.emplace(
          std::make_pair(s.samples[i].lo, s.samples[i].hi),
          std::make_pair(s.weights[i], s.logAmp[i]));
      EXPECT_TRUE(inserted) << "rank sets overlap";
      (void)it;
    }
  }
  ASSERT_EQ(unionSet.size(), serial.nUnique());
  for (std::size_t i = 0; i < serial.nUnique(); ++i) {
    const auto it = unionSet.find({serial.samples[i].lo, serial.samples[i].hi});
    ASSERT_NE(it, unionSet.end()) << i;
    EXPECT_EQ(it->second.first, serial.weights[i]) << i;
    EXPECT_EQ(it->second.second, serial.logAmp[i]) << i;
  }
}

TEST(Sweep, TilingMovesNoExtraArenaBytes) {
  // The cumulative per-sweep copy counters must be *equal* tiled and
  // untiled — detach/attach are index bookkeeping, so the only K/V bytes
  // that ever move are the untiled sweep's own duplicate-row split copies.
  QiankunNet net(smallConfig(12, 3, 3));
  BasSweepEngine engine(net);
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  opts.exec.sweepTileRows = -1;
  engine.sweep(opts);
  const nn::DecodeState::SweepStats untiled = engine.decodeState().sweepStats;
  EXPECT_EQ(untiled.detaches, 0);
  EXPECT_EQ(untiled.attaches, 0);

  opts.exec.sweepTileRows = 5;
  engine.sweep(opts);
  const nn::DecodeState::SweepStats tiled = engine.decodeState().sweepStats;
  EXPECT_GT(tiled.detaches, 0);
  EXPECT_EQ(tiled.attaches, tiled.detaches);
  EXPECT_GT(tiled.slotsDetached, 0);
  EXPECT_EQ(tiled.rowsCopied, untiled.rowsCopied);
  EXPECT_EQ(tiled.realsCopied, untiled.realsCopied);
}

TEST(Sweep, WarmFusedSweepIsAllocationFree) {
  // The engine owns and reuses every buffer (frontier blocks, frame stack,
  // decode arena + step tape, output set), so once warm a fused tiled sweep
  // must perform zero heap allocations.  Fixed SIMD kernel: the threaded
  // backend's OpenMP runtime may allocate outside the engine's control.
  QiankunNet net(smallConfig(12, 3, 3));
  BasSweepEngine engine(net);
  SamplerOptions opts;
  opts.nSamples = 1 << 13;
  opts.exec.kernel = nn::kernels::KernelPolicy::kSimd;
  opts.exec.sweepTileRows = 8;  // exercise defer/attach on the warm path too
  // Warm-up sweeps: the first grows the arena, stack and blocks; later ones
  // let capacities reach their fixpoint (popFrame's pool swaps permute block
  // capacities, and since capacities only grow and the permutation repeats
  // every sweep, each block converges to the max requirement of its orbit).
  // Convergence takes more rounds the deeper the stack, so warm adaptively.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t a0 = allocationCount();
    engine.sweep(opts);
    if (allocationCount() == a0) break;
  }
  const std::uint64_t allocs0 = allocationCount();
  const SampleSet& s = engine.sweep(opts);
  const std::uint64_t sweepAllocs = allocationCount() - allocs0;
  EXPECT_EQ(s.totalWeight(), opts.nSamples);
  EXPECT_EQ(sweepAllocs, 0u);
}

namespace {

std::vector<Bits128> randomStrings(std::size_t n, int nQubits, Rng& rng) {
  std::vector<Bits128> out(n);
  for (auto& s : out)
    for (int q = 0; q < nQubits; ++q) s.set(q, rng.below(2) == 1);
  return out;
}

}  // namespace

TEST(Sweep, PhasesMatchEvaluateAcrossTileEdges) {
  // phases() — the complement of the fused sweep's ln|Psi| — runs the phase
  // MLP in the gradient's phase tiles; rows are independent, so every row
  // must equal an evaluate() of that row alone bit for bit, on either side
  // of a tile edge and for the empty batch.
  QiankunNet net(smallConfig(12, 3, 3));
  const auto tile = static_cast<std::size_t>(
      nn::TransformerAR::kGradTapeBudgetBytes /
      (net.gradTapeRealsPerSample().phase * static_cast<Index>(sizeof(Real))));
  Rng rng(19);
  for (std::size_t batch : {std::size_t{0}, std::size_t{1}, tile - 1, tile, tile + 1,
                            2 * tile + 7}) {
    const auto samples = randomStrings(batch, 12, rng);
    std::vector<Real> phase, la, alone;
    net.phases(samples, phase);
    ASSERT_EQ(phase.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      net.evaluate({samples[i]}, la, alone);
      EXPECT_EQ(phase[i], alone[0]) << "batch " << batch << " row " << i;
    }
  }
}

TEST(Sweep, WarmPhasesIsAllocationFree) {
  // The tape, the phase frame and the output vector keep their capacity, so
  // a warm phases() call of the same batch performs zero heap allocations
  // and neither grows the tape nor overflows it, even when the batch is one
  // tile (fixed SIMD kernel: a threaded backend's OpenMP runtime is outside
  // the net).
  QiankunNet net(smallConfig(12, 3, 3));
  exec::ExecutionPolicy ex;
  ex.kernel = nn::kernels::KernelPolicy::kSimd;
  net.setEvalPolicy(ex);
  Rng rng(23);
  const auto samples = randomStrings(3000, 12, rng);
  std::vector<Real> phase;
  net.phases(samples, phase);
  const nn::Tape::Stats cold = net.gradTapeStats();  // copy
  const std::uint64_t allocs0 = allocationCount();
  net.phases(samples, phase);
  EXPECT_EQ(allocationCount() - allocs0, 0u);
  EXPECT_EQ(net.gradTapeStats().grows, cold.grows);
  EXPECT_EQ(net.gradTapeStats().overflows, cold.overflows);
}
