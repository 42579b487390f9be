#include "vmc/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <memory>

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

}  // namespace

VmcResult runVmc(const ops::PackedHamiltonian& hamiltonian,
                 const nqs::QiankunNetConfig& netConfig, const VmcOptions& opts) {
  const exec::ExecutionPolicy ex = opts.exec;
  if (ex.eloc == ElocMode::kBaseline)
    throw std::invalid_argument(
        "runVmc: the baseline local-energy engine exists for Fig. 10 "
        "benchmarking only; use a sample-aware mode");
  if (opts.checkpointEvery > 0 && opts.checkpointPath.empty())
    throw std::invalid_argument("runVmc: checkpointEvery needs a checkpointPath");
  // Parse + CRC-validate the resume checkpoint once, on the calling thread;
  // the reader is immutable afterwards, so every rank can restore from the
  // same instance concurrently.  (Under MPI each process parses its own copy;
  // the file must be reachable from every node.)
  std::shared_ptr<const io::CheckpointReader> resume;
  if (!opts.resumeFrom.empty())
    resume = std::make_shared<io::CheckpointReader>(opts.resumeFrom);

  const auto world = parallel::makeWorld(ex.comm, opts.nRanks, opts.threadsPerRank);
  const int nRanks = world->size();

  // Every rank assembles an *identical* result (all collectives are
  // rank-order-deterministic), so under MPI each process can return its own
  // copy; under threads we just hand back rank 0's slot.
  std::vector<VmcResult> perRank(static_cast<std::size_t>(nRanks));

  world->run([&](parallel::Comm& comm) {
    const int rank = comm.rank();
    VmcResult res;
    res.energyHistory.assign(static_cast<std::size_t>(opts.iterations), 0.0);
    // Identical seed => identical replicated parameters on every rank, the
    // paper's model-replicated / data-distributed layout.
    nqs::QiankunNet net(netConfig);
    // Route psi inference (the Eloc LUT evaluation below — the largest batch
    // the network ever sees) through the same decode/kernel policies as
    // sampling; cache=true gradient evaluates stay full-forward regardless.
    net.setEvalPolicy(ex);
    // The sweep engine persists across iterations: its decode arena, frontier
    // blocks and output set keep their capacity, so steady-state sampling
    // allocates nothing.
    nqs::BasSweepEngine sampler(net);
    nn::AdamWOptions adamOpts;
    adamOpts.lr = opts.learningRate;
    adamOpts.weightDecay = opts.weightDecay;
    nn::AdamW optimizer(net.parameters(), adamOpts);
    const nn::NoamSchedule schedule(netConfig.dModel, opts.warmupSteps);
    res.parameterCount = net.parameterCount();

    PhaseBreakdown phases;
    std::vector<Real> grads;
    std::vector<Real> logAmp, phase;
    // Measured per-sample term counts of past iterations, the signal behind
    // the term-balanced Stage-3 split (sample sets overlap heavily across
    // iterations, so last iteration's measurement predicts this one's cost).
    TermCostModel costModel;
    std::uint64_t bytesAllIterations = 0;
    // Set NNQS_TRACE=1 to stream per-stage progress of every iteration.
    const bool trace = std::getenv("NNQS_TRACE") != nullptr;
    // N_s schedule (paper §4.1): pretrain at the initial value, then double
    // every growEvery iterations — but only while the global unique count
    // stays inside the budget.  All ranks see the same gathered N_u, so the
    // schedule evolves identically everywhere.
    std::uint64_t nsCurrent = opts.nSamplesInitial;

    // Resume: restore every piece of loop state a checkpoint carries.  The
    // per-iteration sampler streams are keyed on (opts.seed, iter) alone, so
    // with parameters/optimizer/N_s/iteration restored, the continued
    // trajectory is bit-identical to the uninterrupted run.
    int iterStart = 0;
    if (resume) {
      io::loadNet(*resume, net);
      io::loadOptimizer(*resume, optimizer);
      if (resume->getU64("vmc.seed") != opts.seed)
        throw io::SchemaError("vmc.seed",
                              "checkpoint seed differs from VmcOptions::seed");
      const std::uint64_t iterNext = resume->getU64("vmc.iterNext");
      if (iterNext > static_cast<std::uint64_t>(opts.iterations))
        throw io::SchemaError("vmc.iterNext",
                              "checkpoint iteration beyond opts.iterations");
      iterStart = static_cast<int>(iterNext);
      nsCurrent = resume->getU64("vmc.nsCurrent");
      bytesAllIterations = resume->getU64("vmc.commBytes");
      const std::vector<Real> hist = resume->getRealArray("vmc.energyHistory");
      if (hist.size() != static_cast<std::size_t>(iterStart))
        throw io::SchemaError("vmc.energyHistory",
                              "length differs from the stored iteration count");
      std::copy(hist.begin(), hist.end(), res.energyHistory.begin());
      costModel.restore(resume->getBitsArray("vmc.costKeys"),
                        resume->getU64Array("vmc.costCosts"),
                        resume->getU64("vmc.costDefault"));
    }

    for (int iter = iterStart; iter < opts.iterations; ++iter) {
      // Per-iteration byte accounting: everything Stages 1-6 communicate
      // lands in this window; the end-of-iteration bookkeeping gather below
      // is snapshot *after* reading the counter and wiped by this reset, so
      // commBytesPerIteration counts exactly the algorithmic collectives.
      comm.resetByteCounter();
      Timer t0;
      if (trace) std::fprintf(stderr, "[it %d] sampling...\n", iter);
      // --- Stage 1: parallel batch autoregressive sampling ---------------
      nqs::SamplerOptions sOpts;
      sOpts.nSamples = nsCurrent;
      sOpts.seed = opts.seed + static_cast<std::uint64_t>(iter) * 0x9E37u;
      sOpts.exec = ex;
      const nqs::SampleSet& local = sampler.sweep(
          sOpts, rank, nRanks,
          opts.uniqueThresholdPerRank * static_cast<std::uint64_t>(nRanks));
      if (trace) std::fprintf(stderr, "[it %d] sampled Nu=%zu W=%llu\n", iter, local.nUnique(), (unsigned long long)local.totalWeight());
      // psi of the local chunk (inference).  A fused sweep already produced
      // ln|Psi| as a sampling by-product, leaving only the phase MLP to run;
      // otherwise fall back to the separate teacher-forced evaluate pass.
      // (Copy, don't move, local.logAmp: the engine reuses its capacity.)
      const bool fusedAmp = local.logAmp.size() == local.samples.size();
      if (fusedAmp) {
        logAmp.assign(local.logAmp.begin(), local.logAmp.end());
        net.phases(local.samples, phase);
      } else {
        net.evaluate(local.samples, logAmp, phase, nn::GradMode::kInference);
      }
      phases.sampling += t0.seconds();

      // --- Stage 2: Allgather unique samples + psi ------------------------
      Timer t1;
      std::vector<GatherRecord> records(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex p = nqs::QiankunNet::psiValue(logAmp[i], phase[i]);
        records[i] = {local.samples[i], local.weights[i], p.real(), p.imag()};
      }
      std::vector<std::size_t> gatherCounts;
      const std::vector<GatherRecord> all =
          comm.allGatherV(records.data(), records.size(), &gatherCounts);
      // This rank's samples occupy a contiguous span of the rank-ordered
      // gathered set; Stage 4/5 read their local energies back from there.
      std::size_t ownOffset = 0;
      for (int r = 0; r < rank; ++r)
        ownOffset += gatherCounts[static_cast<std::size_t>(r)];
      std::vector<Bits128> allSamples(all.size());
      std::vector<Complex> allPsi(all.size());
      std::uint64_t totalWeight = 0;
      for (std::size_t i = 0; i < all.size(); ++i) {
        allSamples[i] = all[i].sample;
        allPsi[i] = Complex{all[i].psiRe, all[i].psiIm};
        totalWeight += all[i].weight;
      }
      const WavefunctionLut lut = WavefunctionLut::build(allSamples, allPsi);
      phases.other += t1.seconds();
      if (iter + 1 > opts.pretrainIterations && nsCurrent < opts.nSamples &&
          (iter + 1 - opts.pretrainIterations) % std::max(1, opts.growEvery) == 0 &&
          (opts.maxUniqueSamples == 0 || 2 * lut.size() <= opts.maxUniqueSamples))
        nsCurrent = std::min(nsCurrent * 2, opts.nSamples);

      if (trace) std::fprintf(stderr, "[it %d] gathered %zu\n", iter, all.size());
      // --- Stage 3: local energies of a term-balanced chunk ---------------
      // The gathered set is tiled and the tiles are dealt to ranks — by last
      // iteration's measured per-sample term counts (LPT bin-packing) once a
      // measurement exists, by equal counts before that.  Every rank computes
      // the same partition from the same gathered data, so no coordination
      // is needed; the results are AllgatherV'd back and re-ordered into the
      // gathered order.  Per-sample local energies are chunk-independent, so
      // the trajectory is bit-identical regardless of the split.
      Timer t2;
      const std::size_t nAll = allSamples.size();
      const std::size_t tileSz = std::max<std::size_t>(1, opts.rankTileSize);
      const std::size_t nTiles = (nAll + tileSz - 1) / tileSz;
      RankPartition part;
      if (opts.rankSplit == RankSplit::kTermBalanced && !costModel.empty()) {
        std::vector<std::uint64_t> tileCosts(nTiles, 0);
        for (std::size_t i = 0; i < nAll; ++i)
          tileCosts[i / tileSz] += costModel.estimate(allSamples[i]);
        part = partitionTilesByCost(tileCosts, nRanks);
      } else {
        part = partitionTilesEqual(nTiles, nRanks);
      }
      const auto& myTiles = part.tiles[static_cast<std::size_t>(rank)];
      std::vector<Bits128> chunk;
      for (const std::uint32_t t : myTiles) {
        const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
        const std::size_t hi = std::min(nAll, lo + tileSz);
        chunk.insert(chunk.end(), allSamples.begin() + static_cast<std::ptrdiff_t>(lo),
                     allSamples.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      ElocStats elocStats;
      std::vector<std::uint64_t> chunkTerms(chunk.size(), 0);
      const std::vector<Complex> chunkEloc =
          localEnergies(hamiltonian, chunk, lut, ex.eloc,
                        /*made=*/nullptr, /*net=*/nullptr, &elocStats,
                        chunkTerms.data());
      // Route every sample's (eloc, measured terms) back to all ranks and
      // restore the gathered order via the (identical) partition.
      const std::vector<Complex> gatheredEloc =
          comm.allGatherV(chunkEloc.data(), chunkEloc.size());
      const std::vector<std::uint64_t> gatheredTerms =
          comm.allGatherV(chunkTerms.data(), chunkTerms.size());
      std::vector<Complex> globalEloc(nAll);
      std::vector<std::uint64_t> globalTerms(nAll);
      {
        std::size_t pos = 0;
        for (int r = 0; r < nRanks; ++r)
          for (const std::uint32_t t : part.tiles[static_cast<std::size_t>(r)]) {
            const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
            const std::size_t hi = std::min(nAll, lo + tileSz);
            for (std::size_t i = lo; i < hi; ++i, ++pos) {
              globalEloc[i] = gatheredEloc[pos];
              globalTerms[i] = gatheredTerms[pos];
            }
          }
      }
      costModel.update(allSamples, globalTerms);
      // Realized per-rank term work + its spread (the imbalance the
      // repartitioner minimizes); identical on every rank.
      std::vector<std::uint64_t> realizedTile(nTiles, 0);
      for (std::size_t i = 0; i < nAll; ++i)
        realizedTile[i / tileSz] += globalTerms[i];
      const std::vector<std::uint64_t> rankTerms =
          realizedRankCosts(part, realizedTile);
      res.rankTermsMin = *std::min_element(rankTerms.begin(), rankTerms.end());
      res.rankTermsMax = *std::max_element(rankTerms.begin(), rankTerms.end());
      // This rank's own samples' local energies, for Stages 4 and 5.  Using
      // the routed global array keeps the Stage-4 summation order exactly the
      // per-rank local order of the pre-repartition design.
      const Complex* eloc = globalEloc.data() + ownOffset;
      phases.localEnergy += t2.seconds();

      // --- Stage 4: Allreduce the energy estimate -------------------------
      Timer t3;
      std::array<Real, 3> acc{0, 0, 0};  // sum w*Re(E), sum w*Im(E), sum w*|E|^2
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Real w = static_cast<Real>(local.weights[i]);
        acc[0] += w * eloc[i].real();
        acc[1] += w * eloc[i].imag();
        acc[2] += w * std::norm(eloc[i]);
      }
      comm.allReduceSum(std::span<Real>(acc));
      const Real wTot = static_cast<Real>(totalWeight);
      const Complex eMean{acc[0] / wTot, acc[1] / wTot};
      const Real variance = acc[2] / wTot - std::norm(eMean);
      phases.other += t3.seconds();

      if (trace) std::fprintf(stderr, "[it %d] eloc done E=%f\n", iter, eMean.real());
      // --- Stage 5: backward on the own chunk -----------------------------
      Timer t4;
      // The loss seeds depend only on eloc/eMean/weights, so they are
      // computed up front and the forward+backward runs through the
      // recompute-in-tiles gradient path (ExecutionPolicy::gradTileRows):
      // peak training activation memory is one tile's, not the chunk's, and
      // the accumulated gradients are bit-identical to the monolithic
      // recording-evaluate + backward this replaced.
      std::vector<Real> dLogAmp(local.nUnique()), dPhase(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex delta = eloc[i] - eMean;
        const Real w = static_cast<Real>(local.weights[i]) / wTot;
        dLogAmp[i] = 2.0 * w * delta.real();
        dPhase[i] = 2.0 * w * delta.imag();
      }
      net.evaluateGrad(local.samples, dLogAmp, dPhase);
      phases.gradient += t4.seconds();

      if (trace) std::fprintf(stderr, "[it %d] backward done\n", iter);
      // --- Stage 6: Allreduce gradients + identical optimizer step --------
      Timer t5;
      net.flattenGradients(grads);
      comm.allReduceSum(grads.data(), grads.size());
      net.loadGradients(grads);
      optimizer.step(schedule.lr(iter + 1));
      phases.gradient += t5.seconds();

      // Per-iteration bookkeeping, identical on every rank.  The byte gather
      // reads the counters *then* exchanges them, and the exchange is wiped
      // by next iteration's reset — so it never pollutes the accounting.
      const std::uint64_t myBytes = comm.bytesCommunicated();
      const std::vector<std::uint64_t> rankBytes = comm.allGather(&myBytes, 1);
      std::uint64_t iterBytes = 0;
      for (const std::uint64_t b : rankBytes) iterBytes += b;
      bytesAllIterations += iterBytes;

      res.energyHistory[static_cast<std::size_t>(iter)] = eMean.real();
      res.variance = variance;
      res.nUnique = lut.size();
      // Periodic checkpoint (rank 0; every rank holds identical state, so one
      // writer suffices).  Captured *after* the optimizer step, N_s update
      // and byte bookkeeping, i.e. exactly the state iteration iter+1 starts
      // from; the atomic save keeps the previous file intact on a crash.
      if (opts.checkpointEvery > 0 && rank == 0 &&
          (iter + 1) % opts.checkpointEvery == 0) {
        io::CheckpointWriter w;
        io::addNet(w, net);
        io::addOptimizer(w, optimizer);
        w.addU64("vmc.seed", opts.seed);
        w.addU64("vmc.iterNext", static_cast<std::uint64_t>(iter) + 1);
        w.addU64("vmc.nsCurrent", nsCurrent);
        w.addU64("vmc.commBytes", bytesAllIterations);
        w.addRealArray("vmc.energyHistory", res.energyHistory.data(),
                       static_cast<std::size_t>(iter) + 1);
        w.addBitsArray("vmc.costKeys", costModel.keys());
        w.addU64Array("vmc.costCosts", costModel.costs());
        w.addU64("vmc.costDefault", costModel.defaultCost());
        w.save(opts.checkpointPath);
      }
      if (iter == opts.iterations - 1) {
        // Publish rank 0's engine counters so every rank's result agrees.
        comm.bcast(&elocStats, 1);
        res.elocStats = elocStats;
      }
      if (rank == 0) {
        if (opts.logEvery > 0 && iter % opts.logEvery == 0) {
          if (ex.eloc == ElocMode::kBatched)
            log::info(
                "vmc it=%4d E=%.8f var=%.3e Nu=%zu Ns=%llu "
                "eloc[probes=%llu hits=%llu tileTerms=%llu..%llu] "
                "rankTerms=%llu..%llu",
                iter, eMean.real(), variance, lut.size(),
                static_cast<unsigned long long>(sOpts.nSamples),
                static_cast<unsigned long long>(elocStats.lutProbes),
                static_cast<unsigned long long>(elocStats.lutHits),
                static_cast<unsigned long long>(elocStats.tileTermsMin),
                static_cast<unsigned long long>(elocStats.tileTermsMax),
                static_cast<unsigned long long>(res.rankTermsMin),
                static_cast<unsigned long long>(res.rankTermsMax));
          else
            log::info("vmc it=%4d E=%.8f var=%.3e Nu=%zu Ns=%llu "
                      "rankTerms=%llu..%llu",
                      iter, eMean.real(), variance, lut.size(),
                      static_cast<unsigned long long>(sOpts.nSamples),
                      static_cast<unsigned long long>(res.rankTermsMin),
                      static_cast<unsigned long long>(res.rankTermsMax));
        }
        if (opts.observer) opts.observer(iter, eMean.real(), lut.size());
      }
    }

    // End-of-run reductions (outside the per-iteration byte windows): the
    // cross-rank phase maxima and the summed byte volume, so every rank's
    // VmcResult is bit-identical.
    const std::array<double, 4> myPhases{phases.sampling, phases.localEnergy,
                                         phases.gradient, phases.other};
    const std::vector<double> allPhases = comm.allGather(myPhases.data(), 4);
    PhaseBreakdown maxPhases;
    for (int r = 0; r < nRanks; ++r) {
      const double* p = allPhases.data() + 4 * static_cast<std::size_t>(r);
      maxPhases.sampling = std::max(maxPhases.sampling, p[0]);
      maxPhases.localEnergy = std::max(maxPhases.localEnergy, p[1]);
      maxPhases.gradient = std::max(maxPhases.gradient, p[2]);
      maxPhases.other = std::max(maxPhases.other, p[3]);
    }
    const Real n = static_cast<Real>(std::max(1, opts.iterations));
    res.secondsPerIteration = {maxPhases.sampling / n, maxPhases.localEnergy / n,
                               maxPhases.gradient / n, maxPhases.other / n};
    res.commBytesPerIteration =
        bytesAllIterations / static_cast<std::uint64_t>(std::max(1, opts.iterations));

    // Final energy: average of the last window (reduces MC noise).
    const int window = std::min(opts.iterations, std::max(1, opts.iterations / 10));
    Real sum = 0;
    for (int i = opts.iterations - window; i < opts.iterations; ++i)
      sum += res.energyHistory[static_cast<std::size_t>(i)];
    res.energy = sum / static_cast<Real>(window);

    perRank[static_cast<std::size_t>(rank)] = std::move(res);
  });

  return std::move(perRank[static_cast<std::size_t>(world->thisProcessRank())]);
}

}  // namespace nnqs::vmc
