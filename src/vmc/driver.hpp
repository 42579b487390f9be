#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/policy.hpp"
#include "nqs/sampler.hpp"
#include "parallel/comm.hpp"
#include "vmc/local_energy.hpp"

namespace nnqs::vmc {

/// How Stage 3 splits the gathered sample set across ranks.
enum class RankSplit {
  /// Equal *sample counts* per rank (the pre-PR behaviour): contiguous blocks
  /// of the gathered set, ignoring that equal-sample chunks carry wildly
  /// unequal term work (ElocStats tileTermsMin..Max spreads of ~17x at C2).
  kEqualCount,
  /// Term-count-balanced: tiles of the gathered set are bin-packed across
  /// ranks by their *measured* term cost of the previous iteration
  /// (vmc/repartition.hpp).  Falls back to kEqualCount on the first
  /// iteration, when no measurement exists yet.  Per-sample local energies
  /// are chunk-independent, so the energy/gradient trajectory is bit-identical
  /// to kEqualCount — only the per-rank wall clock moves.
  kTermBalanced,
};

/// Options of the data-centric parallel VMC loop (paper Fig. 4 / §3.2).
struct VmcOptions {
  int iterations = 400;
  std::uint64_t nSamples = 1 << 14;        ///< final N_s target
  std::uint64_t nSamplesInitial = 1 << 12; ///< pre-training N_s (paper §4.1)
  int pretrainIterations = 50;             ///< iterations at the initial N_s
  int growEvery = 50;                      ///< N_s doubles this often after pretraining
  /// Stop growing N_s while the global unique-sample count exceeds half this
  /// bound (0 = unlimited).  BAS cost scales with N_u, not N_s, so N_s can
  /// grow to the paper's 1e12 scale once the ansatz has concentrated; this
  /// cap keeps the pre-concentration iterations affordable.
  std::uint64_t maxUniqueSamples = 0;
  std::uint64_t seed = 7;
  /// World size.  Threads backend: the number of rank threads to spawn.  MPI
  /// backend: must match the mpirun-launched world size (0 = accept whatever
  /// mpirun provides).
  int nRanks = 1;
  int threadsPerRank = 1;
  std::uint64_t uniqueThresholdPerRank = 4096;  ///< N*_u = value * nRanks (paper §4.4)
  Real learningRate = 1.0;  ///< multiplies the Eq.(13) schedule
  long warmupSteps = 200;
  Real weightDecay = 1e-4;
  /// Consolidated engine selection (exec/policy.hpp): decode engine + kernel
  /// backend of sampling and psi inference, local-energy engine, and the comm
  /// backend (thread ranks in-process vs. real MPI, NNQS_WITH_MPI builds).
  /// All choices are bit-identical; they move wall clock and deployment only.
  exec::ExecutionPolicy exec;
  /// Stage-3 partitioning of the gathered set (see RankSplit).
  RankSplit rankSplit = RankSplit::kTermBalanced;
  /// Repartitioning granularity: samples per tile of the gathered set.  The
  /// default keeps per-tile bookkeeping negligible at production N_u; tests
  /// shrink it so small systems still produce enough tiles to balance.
  std::size_t rankTileSize = 64;

  // --- Checkpointing (io/checkpoint.hpp) ------------------------------------
  /// Write a checkpoint after every k-th iteration (0 = never).  Every rank
  /// contributes its slice of the optimizer moments and rank 0 writes them
  /// whole, so the image resumes at any rank count; the atomic tmp+rename
  /// publish means a crash mid-write leaves the previous checkpoint intact.
  /// Requires a non-empty checkpointPath.
  int checkpointEvery = 0;
  /// Destination file of periodic checkpoints (overwritten in place).
  std::string checkpointPath;
  /// Resume from this checkpoint: restores net parameters, optimizer moments/
  /// step, the N_s schedule position, the term-cost model and the energy
  /// history, then continues at the stored iteration.  The per-iteration
  /// sampler streams are keyed on (seed, iteration) alone — the sampler holds
  /// no cross-iteration state — so the resumed trajectory is bit-identical to
  /// the uninterrupted run (tests/test_vmc.cpp).  The stored seed must match
  /// opts.seed, the stored iteration must not exceed opts.iterations and the
  /// stored N_s must be at least 1.
  std::string resumeFrom;

  int logEvery = 0;  ///< 0 = silent
  /// Optional per-iteration observer: (iteration, energy, nUnique).
  std::function<void(int, Real, std::size_t)> observer;
};

struct PhaseBreakdown {
  double sampling = 0, localEnergy = 0, gradient = 0, other = 0;
  [[nodiscard]] double total() const { return sampling + localEnergy + gradient + other; }
};

struct VmcResult {
  std::vector<Real> energyHistory;     ///< weighted mean E per iteration
  Real energy = 0;                     ///< mean over the last averaging window
  Real variance = 0;                   ///< last-iteration local-energy variance
  std::size_t nUnique = 0;             ///< last-iteration global unique samples
  /// Averaged over the iterations this call ran (a resumed call's own, zeros
  /// when it had none left), max over ranks.
  PhaseBreakdown secondsPerIteration;
  /// Exact per-iteration communication volume, summed across ranks and
  /// averaged over iterations: the byte counters are reset at the top of
  /// every iteration, so only Stage 1-6 collectives are counted (the
  /// end-of-run bookkeeping exchanges are excluded).  See the accounting
  /// contract in parallel/comm.hpp.
  std::uint64_t commBytesPerIteration = 0;
  /// Last iteration's realized Stage-3 term work of the lightest and
  /// heaviest rank (the inter-rank load-imbalance measure the term-balanced
  /// repartitioner minimizes; max/min is the imbalance factor).
  std::uint64_t rankTermsMin = 0;
  std::uint64_t rankTermsMax = 0;
  Index parameterCount = 0;
};

/// A non-finite value where the VMC loop needs a finite one: the run stops
/// instead of feeding it to the loss seeds and the optimizer.  The checked
/// values are allreduced, so every rank throws at the same stage and
/// iteration, and none waits in a collective for a rank that left.
class NumericalError : public std::runtime_error {
 public:
  NumericalError(const std::string& what, std::string stage_, int iteration_, int rank_,
                 std::optional<Bits128> sample_)
      : std::runtime_error(what), stage(std::move(stage_)), iteration(iteration_),
        rank(rank_), sample(sample_) {}

  std::string stage;  ///< the loop stage whose check failed
  int iteration;
  int rank;  ///< the rank that threw
  /// That rank's first own sample with a non-finite value; empty when none
  /// of its own samples has one.
  std::optional<Bits128> sample;
};

/// Run the 6-stage data-centric VMC of the paper on the comm backend selected
/// by opts.exec.comm (thread ranks by default; real MPI under NNQS_WITH_MPI):
/// 1) parallel BAS (the sweep itself yields ln|Psi|, so only the phase MLP
/// runs separately), 2) Allgather samples+psi, 3) sample-aware local
/// energies on a term-balanced chunk of the gathered set (one AllgatherV of
/// (E_loc, term count) records routes every sample's values back, so every
/// rank sees its own samples' energies and the cost model every sample's
/// terms), 4) Allreduce energy, 5) backward on the own chunk, 6) the sharded
/// optimizer step: a reduce-scatter of the net's one gradient buffer in
/// place (rank q gets the rank-ordered sums of its Comm::slice, +0.0
/// elsewhere), one kernels::adamw call over that slice alone (its moments
/// are the only ones the rank holds; the gradients are zeroed in the same
/// pass), then an allgather of every rank's new slice of the value buffer.
/// AdamW is elementwise, so every rank ends with the bits of one whole-store
/// step, and Stage 6 receives 2 * 8 * M bytes per rank as an allreduce
/// would.  Each rank runs the stages as functions over buffers it keeps
/// across iterations.
///
/// Every rank returns an identical VmcResult (all collectives are
/// rank-order-deterministic); under MPI each process returns its own copy.
/// Throws std::invalid_argument for an empty run (iterations < 1 or
/// nSamplesInitial < 1), which has no energy to report, io::SchemaError
/// for a resume checkpoint that would continue one (vmc.nsCurrent of 0), and
/// NumericalError when Stage 4's allreduced energy or variance is not
/// finite.
VmcResult runVmc(const ops::PackedHamiltonian& hamiltonian,
                 const nqs::QiankunNetConfig& netConfig, const VmcOptions& opts);

}  // namespace nnqs::vmc
