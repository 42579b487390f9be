#include "nqs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace nnqs::nqs {

namespace {

/// Binomial(n, p) draw that stays practical from n = 1 to n = 1e12:
/// exact Bernoulli summation for small n, inverse-transform Poisson for the
/// small-mean regime, gaussian approximation otherwise.
/// Poisson(lambda) inverse-transform draw, clamped to [0, n].
std::uint64_t poissonDraw(Rng& rng, Real lambda, std::uint64_t n) {
  const Real target = rng.uniform();
  Real term = std::exp(-lambda), cdf = term;
  std::uint64_t k = 0;
  while (cdf < target && k < n) {
    ++k;
    term *= lambda / static_cast<Real>(k);
    cdf += term;
    if (term < 1e-18 && k > static_cast<std::uint64_t>(lambda)) break;  // tail cut
  }
  return k;
}

std::uint64_t binomialDraw(Rng& rng, std::uint64_t n, Real p) {
  if (!(p > 0.0) || n == 0) return 0;  // also treats NaN as "no successes"
  if (p >= 1.0) return n;
  if (n <= 128) {
    std::uint64_t k = 0;
    for (std::uint64_t i = 0; i < n; ++i) k += (rng.uniform() < p) ? 1 : 0;
    return k;
  }
  const Real mean = static_cast<Real>(n) * p;
  const Real meanFail = static_cast<Real>(n) * (1.0 - p);
  if (mean < 32.0) return poissonDraw(rng, mean, n);
  if (meanFail < 32.0) return n - poissonDraw(rng, meanFail, n);
  // Both success and failure counts are large: gaussian approximation.
  // (var = mean * meanFail / n >= ~16 here, where the approximation is good.)
  const Real var = mean * (1.0 - p);
  const Real draw = mean + std::sqrt(var) * rng.normal();
  if (draw <= 0.0) return 0;
  if (draw >= static_cast<Real>(n)) return n;
  return static_cast<std::uint64_t>(draw + 0.5);
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic per-node RNG substream key.  (bits, step) is bijective with
/// the node's token prefix — the bits at step s pin tokens 0..s-1 exactly —
/// so keys are unique across the whole sampling tree without storing them,
/// and every node's multinomial draw is independent of traversal order, tile
/// geometry and rank partition.
std::uint64_t nodeKey(std::uint64_t seed, Bits128 bits, int step) {
  std::uint64_t h = mix64(seed ^ 0x6A09E667F3BCC909ull);
  h = mix64(h ^ bits.lo);
  h = mix64(h ^ bits.hi);
  h = mix64(h ^ (static_cast<std::uint64_t>(step) + 0x9E3779B97F4A7C15ull));
  return h;
}

}  // namespace

std::array<std::uint64_t, 4> multinomialSplit4(Rng& rng, std::uint64_t n,
                                               const Real* probs) {
  std::array<std::uint64_t, 4> out{};
  std::uint64_t left = n;
  Real pLeft = 1.0;
  for (int t = 0; t < 3; ++t) {
    if (left == 0 || pLeft <= 0.0) break;
    const Real cond = std::min<Real>(1.0, probs[t] / pLeft);
    out[static_cast<std::size_t>(t)] = binomialDraw(rng, left, cond);
    left -= out[static_cast<std::size_t>(t)];
    pLeft -= probs[t];
  }
  out[3] = left;
  return out;
}

// ---------------------------------------------------------------------------
// BasSweepEngine
// ---------------------------------------------------------------------------

void BasSweepEngine::NodeBlock::clear() {
  bits.clear();
  weights.clear();
  logp.clear();
  step = 0;
}

void BasSweepEngine::armRoot(std::uint64_t nSamples) {
  out_.clear();
  cur_.clear();
  next_.clear();
  stackTop_ = 0;
  cur_.bits.push_back(Bits128{});
  cur_.weights.push_back(nSamples);
  cur_.logp.push_back(0.0);
}

void BasSweepEngine::step() {
  const int s = cur_.step;
  const std::size_t n = cur_.nodes();
  net_.stepConditionals(state_, cur_.bits, probs_);
  next_.clear();
  next_.step = s + 1;
  parentRows_.clear();
  for (std::size_t b = 0; b < n; ++b) {
    Rng rng(nodeKey(seed_, cur_.bits[b], s));
    const auto split =
        multinomialSplit4(rng, cur_.weights[b], probs_.data() + 4 * b);
    for (int t = 0; t < 4; ++t) {
      if (split[static_cast<std::size_t>(t)] == 0) continue;  // pruned leaf
      next_.bits.push_back(net_.applyToken(cur_.bits[b], s, t));
      next_.weights.push_back(split[static_cast<std::size_t>(t)]);
      // Fused ln|Psi|: exactly the evaluate() accumulation (ascending s,
      // la += 0.5*ln p_chosen over the same maskedSoftmax4 conditionals),
      // including the dead-branch sentinel — multinomialSplit4's remainder
      // can land weight on a zero-probability outcome, which evaluate()
      // reports as kLogZeroAmp, never as log(0).
      const Real p = probs_[4 * b + static_cast<std::size_t>(t)];
      const Real parentLp = cur_.logp[b];
      next_.logp.push_back(parentLp <= QiankunNet::kLogZeroAmp || p <= 0.0
                               ? QiankunNet::kLogZeroAmp
                               : parentLp + 0.5 * std::log(p));
      parentRows_.push_back(static_cast<Index>(b));
    }
  }
  if (next_.step < net_.nSteps())
    state_.gather(parentRows_);
  else
    state_.releaseRows();  // leaves need no rows; parents' data is dead
  std::swap(cur_, next_);
}

void BasSweepEngine::copyRange(const NodeBlock& src, std::size_t lo,
                               std::size_t hi, NodeBlock& dst) {
  const auto plo = static_cast<std::ptrdiff_t>(lo);
  const auto phi = static_cast<std::ptrdiff_t>(hi);
  dst.bits.insert(dst.bits.end(), src.bits.begin() + plo, src.bits.begin() + phi);
  dst.weights.insert(dst.weights.end(), src.weights.begin() + plo,
                     src.weights.begin() + phi);
  dst.logp.insert(dst.logp.end(), src.logp.begin() + plo, src.logp.begin() + phi);
}

void BasSweepEngine::shrinkBlock(NodeBlock& block, std::size_t keep) {
  block.bits.resize(keep);
  block.weights.resize(keep);
  block.logp.resize(keep);
}

BasSweepEngine::Frame& BasSweepEngine::pushFrame() {
  if (stackTop_ == stack_.size()) stack_.emplace_back();
  Frame& f = stack_[stackTop_++];
  f.nodes.clear();
  f.slots.clear();
  return f;
}

void BasSweepEngine::popFrame() {
  Frame& f = stack_[--stackTop_];
  std::swap(cur_, f.nodes);  // f.nodes keeps the old block's capacity pooled
  state_.attachRows(f.slots, static_cast<Index>(cur_.step));
  f.slots.clear();
}

void BasSweepEngine::deferExcess() {
  const std::size_t n = cur_.nodes();
  const std::size_t nChunks = (n + tileCap_ - 1) / tileCap_;
  // Push chunks [1, nChunks) in reverse so the leftmost chunk pops first:
  // depth-first left-to-right descent emits leaves in exactly the untiled
  // breadth-first final-layer order, keeping sample sets EXPECT_EQ-identical
  // across tile geometries.
  for (std::size_t c = nChunks; c-- > 1;) {
    const std::size_t lo = c * tileCap_;
    const std::size_t hi = std::min(n, lo + tileCap_);
    Frame& f = pushFrame();
    f.nodes.step = cur_.step;
    copyRange(cur_, lo, hi, f.nodes);
    state_.detachRows(static_cast<Index>(lo), static_cast<Index>(hi), f.slots);
  }
  shrinkBlock(cur_, tileCap_);
  state_.shrinkView(static_cast<Index>(tileCap_));
}

void BasSweepEngine::emitLeaf(const NodeBlock& leaves, std::size_t i) {
  out_.samples.push_back(leaves.bits[i]);
  out_.weights.push_back(leaves.weights[i]);
  out_.logAmp.push_back(leaves.logp[i]);
}

void BasSweepEngine::emitLeaves(const NodeBlock& leaves) {
  for (std::size_t i = 0; i < leaves.nodes(); ++i) emitLeaf(leaves, i);
}

void BasSweepEngine::descend() {
  if (cur_.nodes() == 0) return;  // a rank can own zero subtrees
  while (true) {
    while (cur_.step < net_.nSteps()) {
      if (cur_.nodes() > tileCap_) deferExcess();
      step();
    }
    emitLeaves(cur_);
    if (stackTop_ == 0) break;
    popFrame();
  }
}

void BasSweepEngine::partitionLayer(int rank, int nRanks) {
  // Partition the layer nodes so each rank gets ~equal total weight (greedy
  // largest-first bin packing; deterministic, identical on every rank).
  const std::size_t n = cur_.nodes();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return cur_.weights[a] > cur_.weights[b];
  });
  load_.assign(static_cast<std::size_t>(nRanks), 0);
  owner_.resize(n);
  for (std::size_t idx : order_) {
    const int target = static_cast<int>(
        std::min_element(load_.begin(), load_.end()) - load_.begin());
    owner_[idx] = target;
    load_[static_cast<std::size_t>(target)] += cur_.weights[idx];
  }
  next_.clear();
  next_.step = cur_.step;
  ownedRows_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (owner_[i] != rank) continue;
    copyRange(cur_, i, i + 1, next_);
    ownedRows_.push_back(static_cast<Index>(i));
  }
  std::swap(cur_, next_);
}

const SampleSet& BasSweepEngine::sweep(const SamplerOptions& opts, int rank,
                                       int nRanks,
                                       std::uint64_t uniqueThreshold) {
  const int L = net_.nSteps();
  seed_ = opts.seed;
  if (opts.exec.sweepTileRows < 0)
    tileCap_ = std::numeric_limits<std::size_t>::max();  // one frontier tile
  else
    tileCap_ = opts.exec.sweepTileRows == 0
                   ? static_cast<std::size_t>(kDefaultTileRows)
                   : static_cast<std::size_t>(opts.exec.sweepTileRows);
  armRoot(opts.nSamples);
  net_.beginDecode(state_, 1, opts.exec.kernel);

  if (nRanks > 1) {
    // Breadth-first shared prefix: identical on every rank (shared seed,
    // per-node substreams), so the partition below needs no communication.
    // Untiled by construction — the split layer must exist whole, in
    // canonical order, before it can be dealt out.
    while (cur_.step < L && cur_.nodes() <= uniqueThreshold) step();
    if (cur_.step == L) {
      // Tree exhausted before the split threshold: deal leaves round-robin.
      for (std::size_t i = static_cast<std::size_t>(rank); i < cur_.nodes();
           i += static_cast<std::size_t>(nRanks))
        emitLeaf(cur_, i);
      return out_;
    }
    partitionLayer(rank, nRanks);
    state_.gather(ownedRows_);  // drop others' subtrees
  }
  descend();
  return out_;
}

}  // namespace nnqs::nqs
