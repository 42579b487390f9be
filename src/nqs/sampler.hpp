#pragma once

#include <cstdint>
#include <vector>

#include "nqs/ansatz.hpp"

namespace nnqs::nqs {

/// Unique samples with multiplicities ("weights"), the output of batch
/// autoregressive sampling.
struct SampleSet {
  std::vector<Bits128> samples;
  std::vector<std::uint64_t> weights;
  /// ln|Psi| per unique sample, always filled: the sweep accumulates it from
  /// the same masked conditionals the split draws used, bit-identical to a
  /// separate evaluate() over `samples`.
  std::vector<Real> logAmp;

  [[nodiscard]] std::size_t nUnique() const { return samples.size(); }
  [[nodiscard]] std::uint64_t totalWeight() const {
    std::uint64_t w = 0;
    for (auto x : weights) w += x;
    return w;
  }
  void clear() {
    samples.clear();
    weights.clear();
    logAmp.clear();
  }
};

struct SamplerOptions {
  std::uint64_t nSamples = 1 << 12;  ///< N_s; can be huge (the paper uses 1e12)
  std::uint64_t seed = 7;
  /// Consolidated engine selection (exec/policy.hpp).  The sweep engine
  /// reads exec.kernel (the decode-attention backend; bit-identical, purely
  /// a performance knob) and exec.sweepTileRows (cache-resident tile
  /// geometry of the depth-first descent); the other fields are carried for
  /// callers that forward one policy through the whole stack.
  exec::ExecutionPolicy exec;
};

/// Exact multinomial-style draw: split `n` trials over the 4 outcome
/// probabilities (sequential binomials; exact for small n, gaussian/poisson
/// approximations for astronomically large n).  Exposed for tests.
std::array<std::uint64_t, 4> multinomialSplit4(Rng& rng, std::uint64_t n,
                                               const Real* probs);

/// The batch autoregressive sampler (BAS, Fig. 3(b) / Fig. 5) and the VMC
/// driver's Stage 1.  Hold one engine across sweeps: it reuses its arena.
///
/// One sweep walks the sampling quadtree (two qubits per step), splitting
/// each node's weight multinomially over the 4 outcomes and pruning
/// zero-weight children.  Three structural properties:
///
///  - **A node is its prefix bits.**  A node is its occupation bitstring
///    (built token by token via applyToken), its weight and its running
///    ln|Psi| — O(Nu*L) storage per sweep.  stepConditionals reads the step
///    feed (tokenOf at step s-1) and the mask's electron counts from the
///    bits, so no token prefix or count is ever stored.
///  - **Cache-resident slot-range tiles.**  The frontier is chunked into
///    tiles of at most `tileRows` rows, swept depth-first: a tile descends to
///    the final layer before the next tile starts, so its KV slots stay
///    cache-resident across all remaining steps.  Deferred sibling chunks
///    park their rows via DecodeState::detachRows (index work only; zero K/V
///    bytes) and resume via attachRows.  Split/prune gathers are tile-local.
///  - **Fused evaluation.**  Every split already computed the masked-softmax
///    conditionals, so each child accumulates logp += 0.5*ln p(token) with
///    exactly evaluate()'s arithmetic (including the kLogZeroAmp
///    dead-branch sentinel); the final layer's leaves emit ln|Psi| into
///    SampleSet::logAmp for free, so the VMC loop never runs a separate
///    evaluate() over its samples.
///
/// Every tile geometry and rank partition draws bit-identical sample sets:
/// each node's split consumes a private RNG substream keyed by (seed, bits,
/// step) — the (bits, step) pair is bijective with the token prefix, so keys
/// are unique, need no storage, and make draws independent of traversal
/// order.  A parallel sweep's per-rank
/// union therefore equals the serial sweep exactly.
///
/// The engine owns all sweep state (decode arena, frontier blocks, frame
/// stack, output set) and reuses its capacity, so a warm sweep performs zero
/// heap allocations (asserted by BM_SweepFused).
class BasSweepEngine {
 public:
  explicit BasSweepEngine(QiankunNet& net) : net_(net) {}

  /// Default rows per depth-first tile (ExecutionPolicy::sweepTileRows = 0).
  /// Sized so one tile's KV slots and activations sit in L2 at the paper's
  /// model shapes.
  static constexpr Index kDefaultTileRows = 256;

  /// Run one BAS sweep for `rank` of `nRanks`.  Returns the engine-owned
  /// sample set, valid until the next sweep; its vectors' capacity is reused
  /// across sweeps.
  ///
  /// Serial (nRanks <= 1), this is Fig. 3(b)'s batch autoregressive
  /// sampling: N_s samples in one sweep over the quadtree (two qubits per
  /// step), pruning zero-weight and constraint-violating branches.
  /// Multi-rank, it is Fig. 5's parallel BAS: every rank replays the shared
  /// breadth-first prefix with the shared seed until the frontier exceeds
  /// `uniqueThreshold` (the paper's N*_u), partitions that layer so each rank
  /// gets approximately equal total weight (greedy largest-first,
  /// deterministic), then descends its own subtrees.  Per-node RNG
  /// substreams make the union of the per-rank sets equal the serial sweep
  /// exactly.
  const SampleSet& sweep(const SamplerOptions& opts, int rank = 0,
                         int nRanks = 1, std::uint64_t uniqueThreshold = 0);

  /// The engine's decode state, for arena/sweep-stat assertions in tests and
  /// benches (DecodeState::sweepStats separates tile-local split copies from
  /// zero-byte tile bookkeeping).
  [[nodiscard]] const nn::DecodeState& decodeState() const { return state_; }

 private:
  /// One frontier block: SoA over nodes at a common step.
  struct NodeBlock {
    std::vector<Bits128> bits;  ///< prefix bits: the outcomes of steps 0..step-1
    std::vector<std::uint64_t> weights;
    std::vector<Real> logp;     ///< running ln|Psi| of the prefix
    int step = 0;

    [[nodiscard]] std::size_t nodes() const { return weights.size(); }
    void clear();
  };
  /// A deferred tile awaiting its depth-first descent: node data plus the
  /// detached KV slots backing its decode rows.
  struct Frame {
    NodeBlock nodes;
    std::vector<Index> slots;
  };

  void armRoot(std::uint64_t nSamples);
  /// Advance cur_ one step: its conditionals, the split into next_ (per-node
  /// RNG substream draws, fused logp accumulation), the decode gather of the
  /// children's rows (or the rows' release when the children are leaves),
  /// and the swap that makes the children cur_.
  void step();
  /// Defer all but the first tileCap_ rows of cur_ as stack frames (pushed
  /// in reverse so the leftmost chunk pops first, preserving the global
  /// left-to-right leaf order of the untiled sweep).
  void deferExcess();
  /// Depth-first descent of cur_ (and every frame it defers) to the final
  /// layer, emitting leaves into out_.
  void descend();
  void emitLeaves(const NodeBlock& leaves);
  void emitLeaf(const NodeBlock& leaves, std::size_t i);
  /// Keep only this rank's share of cur_ (greedy largest-first weight
  /// balance, deterministic across ranks); fills ownedRows_ with the kept
  /// canonical row indices for the decode-state gather.
  void partitionLayer(int rank, int nRanks);
  Frame& pushFrame();
  void popFrame();
  static void copyRange(const NodeBlock& src, std::size_t lo, std::size_t hi,
                        NodeBlock& dst);
  static void shrinkBlock(NodeBlock& block, std::size_t keep);

  QiankunNet& net_;
  nn::DecodeState state_;
  SampleSet out_;
  NodeBlock cur_, next_;          ///< double-buffered frontier blocks
  std::vector<Frame> stack_;      ///< frame pool; [0, stackTop_) live
  std::size_t stackTop_ = 0;
  std::vector<Real> probs_;       ///< [nodes, 4] conditionals buffer
  std::vector<Index> parentRows_; ///< child -> parent row of the last split
  // Rank-partition scratch (multi-rank sweeps only).
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> load_;
  std::vector<int> owner_;
  std::vector<Index> ownedRows_;
  // Sweep-wide configuration, set by sweep().
  std::uint64_t seed_ = 0;
  std::size_t tileCap_ = 0;
};

}  // namespace nnqs::nqs
