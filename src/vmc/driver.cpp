#include "vmc/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "io/checkpoint.hpp"
#include "vmc/repartition.hpp"

namespace nnqs::vmc {

namespace {

/// Serialized (sample, weight, psi) record exchanged by the Allgather stage;
/// byte volume per entry matches the paper's ceil(N/8)+16 accounting up to
/// the fixed 16-byte bitstring container and the explicit weight.
struct GatherRecord {
  Bits128 sample;
  std::uint64_t weight;
  Real psiRe, psiIm;
};

/// One sample's Stage-3 result: its local energy and its measured term count
/// (the cost model's signal), routed back to every rank in one exchange.
struct ElocRecord {
  Complex eloc;
  std::uint64_t terms;
};
static_assert(sizeof(ElocRecord) == 24, "Stage 3 sends 16 + 8 bytes per sample");

/// One rank's side of the data-centric VMC loop (paper Fig. 4, §3.2): the
/// replicated model, the optimizer of this rank's slice of the parameter
/// store, the loop state a checkpoint carries, and every buffer the stages
/// reuse, so their capacity survives from one iteration to the next.  One
/// member function per stage; runVmc calls them in order.  Every rank
/// computes identical parameters and loop state.
struct RankLoop {
  RankLoop(parallel::Comm& c, const ops::PackedHamiltonian& h,
           const nqs::QiankunNetConfig& netConfig, const VmcOptions& o)
      : comm(c), hamiltonian(h), opts(o), net(netConfig), sampler(net),
        optimizer(net.parameters(), {.lr = o.learningRate, .weightDecay = o.weightDecay},
                  ownSlice(c, net)),
        schedule(netConfig.dModel, o.warmupSteps), nsCurrent(o.nSamplesInitial) {
    // The phase inference (Stage 1) runs on the run's kernel policy, and the
    // tape gradient (Stage 5) on its tile policy.
    net.setEvalPolicy(o.exec);
    sOpts.exec = o.exec;
    res.energyHistory.assign(static_cast<std::size_t>(o.iterations), 0.0);
    res.parameterCount = net.parameterCount();
  }

  /// This rank's slice of the net's parameter store (Comm::slice).
  static nn::AdamW::Slice ownSlice(const parallel::Comm& c, nqs::QiankunNet& net) {
    const parallel::Comm::Slice s = c.slice(net.values().size());
    return {static_cast<Index>(s.lo), static_cast<Index>(s.hi)};
  }

  /// Resume: restore every piece of loop state a checkpoint carries, the
  /// energy-history prefix included; returns the iteration to continue from.
  /// The moments are stored whole, so this rank keeps its slice whatever
  /// rank count wrote the image.  The per-iteration sampler streams are
  /// keyed on (opts.seed, iter) alone, so the continued trajectory is
  /// bit-identical to the uninterrupted run.
  int restore(const io::CheckpointReader& ckpt) {
    io::loadNet(ckpt, net);
    io::loadOptimizer(ckpt, optimizer);
    if (ckpt.getU64("vmc.seed") != opts.seed)
      throw io::SchemaError("vmc.seed", "checkpoint seed differs from VmcOptions::seed");
    const std::uint64_t iterNext = ckpt.getU64("vmc.iterNext");
    if (iterNext > static_cast<std::uint64_t>(opts.iterations))
      throw io::SchemaError("vmc.iterNext", "checkpoint iteration beyond opts.iterations");
    nsCurrent = ckpt.getU64("vmc.nsCurrent");
    if (nsCurrent < 1)  // every sweep would be empty, every energy NaN
      throw io::SchemaError("vmc.nsCurrent", "the sample count must be >= 1");
    bytesAllIterations = ckpt.getU64("vmc.commBytes");
    const std::vector<Real> hist = ckpt.getRealArray("vmc.energyHistory");
    if (hist.size() != iterNext)
      throw io::SchemaError("vmc.energyHistory", "length differs from vmc.iterNext");
    std::copy(hist.begin(), hist.end(), res.energyHistory.begin());
    const std::vector<Bits128> costKeys = ckpt.getBitsArray("vmc.costKeys");
    std::vector<std::uint64_t> costs = ckpt.getU64Array("vmc.costCosts");
    const std::uint64_t costDefault = ckpt.getU64("vmc.costDefault");
    if (costDefault < 1)
      throw io::SchemaError("vmc.costDefault", "the default cost must be >= 1");
    if (costs.size() != costKeys.size())
      throw io::SchemaError("vmc.costCosts", "length differs from vmc.costKeys");
    try {
      costModel.restore(costKeys, std::move(costs), costDefault);
    } catch (const std::invalid_argument& e) {  // the keys' own check: unique
      throw io::SchemaError("vmc.costKeys", e.what());
    }
    return static_cast<int>(iterNext);
  }

  /// Checkpoint exactly the state iteration `iterNext` starts from (after
  /// the optimizer step, N_s update and byte bookkeeping of iterNext - 1).
  /// Collective: every rank allgathers its moment slices into whole moments,
  /// and rank 0 writes them.
  void save(int iterNext) {
    const std::size_t n = net.values().size();
    const nn::AdamW::Slice own = optimizer.slice();
    std::vector<Real> m(n), v(n);
    std::copy(optimizer.moments1().begin(), optimizer.moments1().end(), m.begin() + own.lo);
    std::copy(optimizer.moments2().begin(), optimizer.moments2().end(), v.begin() + own.lo);
    comm.allGatherSlices(m.data(), n);
    comm.allGatherSlices(v.data(), n);
    if (comm.rank() != 0) return;
    io::CheckpointWriter w;
    io::addNet(w, net);
    io::addOptimizer(w, optimizer, m, v);
    w.addU64("vmc.seed", opts.seed);
    w.addU64("vmc.iterNext", static_cast<std::uint64_t>(iterNext));
    w.addU64("vmc.nsCurrent", nsCurrent);
    w.addU64("vmc.commBytes", bytesAllIterations);
    w.addRealArray("vmc.energyHistory", res.energyHistory.data(),
                   static_cast<std::size_t>(iterNext));
    w.addBitsArray("vmc.costKeys", costModel.keys());
    w.addU64Array("vmc.costCosts", costModel.costs());
    w.addU64("vmc.costDefault", costModel.defaultCost());
    w.save(opts.checkpointPath);
  }

  /// Stage 1: this rank's share of the parallel BAS.  The sweep yields
  /// ln|Psi| as a sampling by-product, leaving only the phase MLP to run.
  void sample(int iter) {
    const Timer t;
    sOpts.nSamples = nsCurrent;
    sOpts.seed = opts.seed + static_cast<std::uint64_t>(iter) * 0x9E37u;
    local = &sampler.sweep(sOpts, comm.rank(), comm.size(),
                           opts.uniqueThresholdPerRank * static_cast<std::uint64_t>(comm.size()));
    net.phases(local->samples, phase);
    phases.sampling += t.seconds();
  }

  /// Stage 2: allgather the unique samples with their psi, then build the
  /// lookup table of the gathered set S.
  void gather() {
    const Timer t;
    records.resize(local->nUnique());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Complex p = nqs::QiankunNet::psiValue(local->logAmp[i], phase[i]);
      records[i] = {local->samples[i], local->weights[i], p.real(), p.imag()};
    }
    const std::vector<GatherRecord> all =
        comm.allGatherV(records.data(), records.size(), &gatherCounts);
    // This rank's samples occupy a contiguous span of the rank-ordered
    // gathered set; Stages 4 and 5 read their local energies from there.
    ownOffset = std::accumulate(gatherCounts.begin(), gatherCounts.begin() + comm.rank(),
                                std::size_t{0});
    allSamples.resize(all.size());
    allPsi.resize(all.size());
    std::uint64_t totalWeight = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      allSamples[i] = all[i].sample;
      allPsi[i] = Complex{all[i].psiRe, all[i].psiIm};
      totalWeight += all[i].weight;
    }
    wTot = static_cast<Real>(totalWeight);
    lut = WavefunctionLut::build(allSamples, allPsi);
    phases.other += t.seconds();
  }

  /// Stage 3: local energies of a term-balanced chunk.  The gathered set is
  /// tiled and the tiles are bin-packed across ranks (LPT) by the cost
  /// model's estimates: last iteration's measured per-sample term counts, or
  /// 1 per sample before the first measurement.  Every rank computes the
  /// same partition from the same gathered data, so no coordination is
  /// needed; one AllgatherV routes every sample's (E_loc, terms) back,
  /// re-ordered into the gathered order.  Per-sample local energies are
  /// chunk-independent, so the trajectory is bit-identical for any split.
  void localEnergies() {
    const Timer t;
    const std::size_t nAll = allSamples.size();
    const std::size_t tileSz = std::max<std::size_t>(1, opts.rankTileSize);
    const std::size_t nTiles = (nAll + tileSz - 1) / tileSz;
    tileCosts.assign(nTiles, 0);
    for (std::size_t i = 0; i < nAll; ++i)
      tileCosts[i / tileSz] += costModel.estimate(allSamples[i]);
    part = partitionTilesByCost(tileCosts, comm.size());
    chunk.clear();
    for (const std::uint32_t tile : part.tiles[static_cast<std::size_t>(comm.rank())])
      chunk.insert(chunk.end(), allSamples.data() + tile * tileSz,
                   allSamples.data() + std::min(nAll, (tile + 1) * tileSz));
    chunkTerms.assign(chunk.size(), 0);
    const std::vector<Complex> eloc =
        vmc::localEnergies(hamiltonian, chunk, lut, &elocStats, chunkTerms.data());
    elocRecords.resize(chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) elocRecords[i] = {eloc[i], chunkTerms[i]};
    const std::vector<ElocRecord> gathered =
        comm.allGatherV(elocRecords.data(), elocRecords.size());
    globalEloc.resize(nAll);
    globalTerms.resize(nAll);
    std::size_t pos = 0;
    for (const std::vector<std::uint32_t>& tiles : part.tiles)
      for (const std::uint32_t tile : tiles)
        for (std::size_t i = tile * tileSz; i < std::min(nAll, (tile + 1) * tileSz); ++i) {
          globalEloc[i] = gathered[pos].eloc;
          globalTerms[i] = gathered[pos++].terms;
        }
    costModel.update(allSamples, globalTerms);
    // Realized per-rank term work and its spread (the imbalance the
    // repartitioner minimizes); identical on every rank.
    tileCosts.assign(nTiles, 0);
    for (std::size_t i = 0; i < nAll; ++i) tileCosts[i / tileSz] += globalTerms[i];
    const std::vector<std::uint64_t> rankTerms = realizedRankCosts(part, tileCosts);
    res.rankTermsMin = *std::min_element(rankTerms.begin(), rankTerms.end());
    res.rankTermsMax = *std::max_element(rankTerms.begin(), rankTerms.end());
    phases.localEnergy += t.seconds();
  }

  /// Stage 4: allreduce the weighted energy moments of the own samples.
  /// Reading them from the routed global array keeps the summation order
  /// the per-rank local order.  A non-finite energy or variance stops the
  /// run before Stage 5 turns it into loss seeds.
  void reduceEnergy(int iter) {
    const Timer t;
    const Complex* eloc = globalEloc.data() + ownOffset;
    std::array<Real, 3> acc{0, 0, 0};  // sum w*Re(E), sum w*Im(E), sum w*|E|^2
    for (std::size_t i = 0; i < local->nUnique(); ++i) {
      const Real w = static_cast<Real>(local->weights[i]);
      acc[0] += w * eloc[i].real();
      acc[1] += w * eloc[i].imag();
      acc[2] += w * std::norm(eloc[i]);
    }
    comm.allReduceSum(std::span<Real>(acc));
    eMean = {acc[0] / wTot, acc[1] / wTot};
    res.variance = acc[2] / wTot - std::norm(eMean);
    if (!std::isfinite(eMean.real()) || !std::isfinite(eMean.imag()) ||
        !std::isfinite(res.variance))
      throwNonFiniteEnergy(iter, eloc);
    phases.other += t.seconds();
  }

  /// Stage 4's guard: name the stage, the iteration, this rank and its first
  /// own sample whose E_loc is not finite, found by a scan made only here.
  [[noreturn]] void throwNonFiniteEnergy(int iter, const Complex* eloc) const {
    std::optional<Bits128> bad;
    for (std::size_t i = 0; i < local->nUnique() && !bad; ++i)
      if (!std::isfinite(eloc[i].real()) || !std::isfinite(eloc[i].imag()))
        bad = local->samples[i];
    const std::string stage = "stage 4 (energy reduce)";
    const std::string where = stage + ", iteration " + std::to_string(iter) + ", rank " +
                              std::to_string(comm.rank());
    throw NumericalError("runVmc: non-finite energy or variance at " + where + "; " +
                             (bad ? "first own sample with a non-finite E_loc: " +
                                        toBitString(*bad, hamiltonian.nQubits)
                                  : std::string("no own sample has a non-finite E_loc")),
                         stage, iter, comm.rank(), bad);
  }

  /// Stage 5: backward on the own samples.  The loss seeds depend only on
  /// E_loc, eMean and the weights, so they are computed up front and the
  /// forward+backward runs through the recompute-in-tiles tape gradient
  /// (ExecutionPolicy::gradTileRows): peak training activation memory is one
  /// tile's, and every tile size gives the same bits.
  void backward() {
    const Timer t;
    dLogAmp.resize(local->nUnique());
    dPhase.resize(local->nUnique());
    for (std::size_t i = 0; i < local->nUnique(); ++i) {
      const Complex delta = globalEloc[ownOffset + i] - eMean;
      const Real w = static_cast<Real>(local->weights[i]) / wTot;
      dLogAmp[i] = 2.0 * w * delta.real();
      dPhase[i] = 2.0 * w * delta.imag();
    }
    net.evaluateGrad(local->samples, dLogAmp, dPhase);
    phases.gradient += t.seconds();
  }

  /// Stage 6, sharded: reduce-scatter the net's gradient buffer (this
  /// rank's slice gets the rank-ordered sums, the rest +0.0, so Stage 5
  /// accumulates from zero next iteration), step AdamW on this rank's slice,
  /// then allgather every rank's new slice of the value buffer.  AdamW is
  /// elementwise, so every rank holds the bits one whole-store step gives.
  void step(int iter) {
    const Timer t;
    const std::span<Real> grads = net.gradients(), values = net.values();
    comm.reduceScatterSum(grads.data(), grads.size());
    optimizer.step(schedule.lr(iter + 1));
    comm.allGatherSlices(values.data(), values.size());
    phases.gradient += t.seconds();
  }

  parallel::Comm& comm;
  const ops::PackedHamiltonian& hamiltonian;
  const VmcOptions& opts;
  // Identical seed => identical replicated parameters on every rank, the
  // paper's model-replicated / data-distributed layout.
  nqs::QiankunNet net;
  // The sweep engine persists across iterations: its decode arena, frontier
  // blocks and output set keep their capacity.
  nqs::BasSweepEngine sampler;
  // Steps and holds moments for this rank's slice of the store only
  // (optimizer-state partitioning, Rajbhandari et al., arXiv:1910.02054).
  nn::AdamW optimizer;
  const nn::NoamSchedule schedule;
  // N_s schedule position (paper §4.1); runVmc grows it from the gathered
  // N_u, which every rank sees alike.
  std::uint64_t nsCurrent;
  // Measured per-sample term counts of past iterations, the signal behind
  // the term-balanced Stage-3 split (sample sets overlap heavily across
  // iterations, so last iteration's measurement predicts this one's cost).
  TermCostModel costModel;
  std::uint64_t bytesAllIterations = 0;
  PhaseBreakdown phases;
  VmcResult res;  ///< this rank's result, filled as the iterations run

  // This iteration's values.
  nqs::SamplerOptions sOpts;              ///< sOpts.nSamples: this sweep's N_s
  const nqs::SampleSet* local = nullptr;  ///< the engine's set, until the next sweep
  std::size_t ownOffset = 0;  ///< this rank's first sample in the gathered set
  Real wTot = 0;              ///< total sample weight N_s of the gathered set
  WavefunctionLut lut;
  ElocStats elocStats;
  Complex eMean;

  // Reused buffers.
  std::vector<Real> phase, dLogAmp, dPhase;
  std::vector<GatherRecord> records;
  std::vector<std::size_t> gatherCounts;
  std::vector<Bits128> allSamples, chunk;
  std::vector<Complex> allPsi, globalEloc;
  std::vector<std::uint64_t> tileCosts, chunkTerms, globalTerms;
  RankPartition part;
  std::vector<ElocRecord> elocRecords;
};

}  // namespace

VmcResult runVmc(const ops::PackedHamiltonian& hamiltonian,
                 const nqs::QiankunNetConfig& netConfig, const VmcOptions& opts) {
  // An empty run has no energy to report (an empty averaging window, or
  // sweeps of zero total weight), so it is an error, not NaN.
  if (opts.iterations < 1 || opts.nSamplesInitial < 1)
    throw std::invalid_argument("runVmc: iterations and nSamplesInitial must be >= 1");
  if (opts.checkpointEvery > 0 && opts.checkpointPath.empty())
    throw std::invalid_argument("runVmc: checkpointEvery needs a checkpointPath");
  // Parse + CRC-validate the resume checkpoint once, on the calling thread;
  // the reader is immutable afterwards, so every rank can restore from the
  // same instance concurrently.  (Under MPI each process parses its own copy;
  // the file must be reachable from every node.)
  std::shared_ptr<const io::CheckpointReader> resume;
  if (!opts.resumeFrom.empty())
    resume = std::make_shared<io::CheckpointReader>(opts.resumeFrom);

  const auto world = parallel::makeWorld(opts.exec.comm, opts.nRanks, opts.threadsPerRank);
  // Every rank assembles an *identical* result (all collectives are
  // rank-order-deterministic), so under MPI each process can return its own
  // copy; under threads we just hand back rank 0's slot.
  std::vector<VmcResult> perRank(static_cast<std::size_t>(world->size()));

  world->run([&](parallel::Comm& comm) {
    RankLoop loop(comm, hamiltonian, netConfig, opts);
    VmcResult& res = loop.res;
    const int iterStart = resume ? loop.restore(*resume) : 0;

    for (int iter = iterStart; iter < opts.iterations; ++iter) {
      // Per-iteration byte accounting: everything Stages 1-6 communicate
      // lands in this window.  A checkpoint save's gathers come after the
      // counter is read and are wiped by this reset, so
      // commBytesPerIteration counts exactly the algorithmic collectives.
      comm.resetByteCounter();
      loop.sample(iter);
      loop.gather();
      loop.localEnergies();
      loop.reduceEnergy(iter);
      loop.backward();
      loop.step(iter);

      // N_s schedule (paper §4.1): pretrain at the initial value, then double
      // every growEvery iterations — but only while the global unique count
      // stays inside the budget.
      if (iter + 1 > opts.pretrainIterations && loop.nsCurrent < opts.nSamples &&
          (iter + 1 - opts.pretrainIterations) % std::max(1, opts.growEvery) == 0 &&
          (opts.maxUniqueSamples == 0 || 2 * loop.lut.size() <= opts.maxUniqueSamples))
        loop.nsCurrent = std::min(loop.nsCurrent * 2, opts.nSamples);
      // Every collective charges every rank the same bytes, so the ranks'
      // sum is this rank's count times the world size.
      loop.bytesAllIterations +=
          comm.bytesCommunicated() * static_cast<std::uint64_t>(comm.size());

      res.energyHistory[static_cast<std::size_t>(iter)] = loop.eMean.real();
      res.nUnique = loop.lut.size();
      // Periodic checkpoint: every rank contributes its moment slices, and
      // rank 0 writes; the atomic save keeps the previous file intact on a
      // crash.
      if (opts.checkpointEvery > 0 && (iter + 1) % opts.checkpointEvery == 0)
        loop.save(iter + 1);
      if (comm.rank() == 0 && opts.logEvery > 0 && iter % opts.logEvery == 0)
        log::info("vmc it=%4d E=%.8f var=%.3e Nu=%zu Ns=%llu "
                  "eloc[probes=%llu hits=%llu tileTerms=%llu..%llu] rankTerms=%llu..%llu",
                  iter, loop.eMean.real(), res.variance, res.nUnique,
                  static_cast<unsigned long long>(loop.sOpts.nSamples),
                  static_cast<unsigned long long>(loop.elocStats.lutProbes),
                  static_cast<unsigned long long>(loop.elocStats.lutHits),
                  static_cast<unsigned long long>(loop.elocStats.tileTermsMin),
                  static_cast<unsigned long long>(loop.elocStats.tileTermsMax),
                  static_cast<unsigned long long>(res.rankTermsMin),
                  static_cast<unsigned long long>(res.rankTermsMax));
      if (comm.rank() == 0 && opts.observer) opts.observer(iter, loop.eMean.real(), res.nUnique);
    }

    // End-of-run reduction (outside the per-iteration byte windows): the
    // cross-rank phase maxima, so every rank's VmcResult is bit-identical.
    const PhaseBreakdown& p = loop.phases;
    const std::array<double, 4> myPhases{p.sampling, p.localEnergy, p.gradient, p.other};
    const std::vector<double> allPhases = comm.allGather(myPhases.data(), 4);
    std::array<double, 4> mx{};
    for (std::size_t k = 0; k < allPhases.size(); ++k)
      mx[k % 4] = std::max(mx[k % 4], allPhases[k]);
    // The phase times cover this call's iterations only (a resume restores
    // no times); a resume with none left reports zeros.
    const Real n = std::max(1, opts.iterations - iterStart);
    res.secondsPerIteration = {mx[0] / n, mx[1] / n, mx[2] / n, mx[3] / n};
    res.commBytesPerIteration =
        loop.bytesAllIterations / static_cast<std::uint64_t>(opts.iterations);

    // Final energy: average of the last window (reduces MC noise).
    const int window = std::max(1, opts.iterations / 10);
    const auto& hist = res.energyHistory;
    res.energy = std::accumulate(hist.end() - window, hist.end(), 0.0) / window;
    perRank[static_cast<std::size_t>(comm.rank())] = std::move(res);
  });

  return std::move(perRank[static_cast<std::size_t>(world->thisProcessRank())]);
}

}  // namespace nnqs::vmc
