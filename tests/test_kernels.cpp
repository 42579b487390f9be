// Attention kernel backends: exact (tolerance-0) agreement between the scalar
// reference kernels and the vectorized/threaded backends of every ISA tier
// the host runs, on randomized shapes — decode attention and the training
// forward/backward — the shared softmax exp, and the arena-backed
// DecodeState gather.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/decode_state.hpp"
#include "nn/kernels/kernel_table.hpp"
#include "nn/kernels/kernels.hpp"

using namespace nnqs;
using namespace nnqs::nn;
using kernels::DecodeAttnArgs;
using kernels::KernelPolicy;
using kernels::detail::KernelTable;

namespace {

/// A self-contained decode-attention problem in the arena layouts
/// (K position-transposed, V position-major) with randomized content and a
/// possibly ragged slot map (duplicates and gaps, as after frontier gathers).
struct Problem {
  Index batch, heads, headDim, dModel, pos, maxLen, capacity;
  std::vector<Real> q, k, v;
  std::vector<Index> slots;

  Problem(Index b, Index h, Index hd, Index p, Index L, Rng& rng, bool ragged)
      : batch(b), heads(h), headDim(hd), dModel(h * hd), pos(p), maxLen(L),
        capacity(b > 0 ? 2 * b : 1) {
    q.resize(static_cast<std::size_t>(b * 3 * dModel));
    k.resize(static_cast<std::size_t>(capacity * dModel * maxLen));
    v.resize(static_cast<std::size_t>(capacity * maxLen * dModel));
    for (auto& x : q) x = rng.normal();
    for (auto& x : k) x = rng.normal();
    for (auto& x : v) x = rng.normal();
    slots.resize(static_cast<std::size_t>(b));
    for (Index r = 0; r < b; ++r)
      slots[static_cast<std::size_t>(r)] =
          ragged ? static_cast<Index>(rng.below(static_cast<std::uint64_t>(capacity)))
                 : r;
  }

  [[nodiscard]] std::vector<Real> run(
      KernelPolicy policy,
      const KernelTable& tier = kernels::detail::hostKernels()) const {
    std::vector<Real> ctx(static_cast<std::size_t>(batch * dModel), 0.0);
    DecodeAttnArgs a;
    a.batch = batch;
    a.heads = heads;
    a.headDim = headDim;
    a.dModel = dModel;
    a.pos = pos;
    a.maxLen = maxLen;
    a.q = q.data();
    a.qStride = 3 * dModel;
    a.k = k.data();
    a.v = v.data();
    a.slots = slots.data();
    a.ctx = ctx.data();
    a.scale = 1.0 / std::sqrt(static_cast<Real>(headDim));
    kernels::detail::decodeAttention(a, policy, tier);
    return ctx;
  }
};

/// Bitwise equality (tolerance 0; also tells -0.0 from +0.0).
void expectBitIdentical(const std::vector<Real>& ref, const std::vector<Real>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[i]), std::bit_cast<std::uint64_t>(got[i]))
        << what << " ctx[" << i << "]: " << ref[i] << " vs " << got[i];
}

}  // namespace

TEST(Kernels, SoftmaxExpMatchesStdExp) {
  // The shared kernel exp must track std::exp to ~1 ulp over the softmax
  // range (arguments are score - max <= 0) and handle the underflow cutoff.
  for (Real x = 0.0; x >= -700.0; x -= 0.37) {
    const Real ref = std::exp(x);
    const Real got = kernels::softmaxExp(x);
    EXPECT_NEAR(got, ref, 4e-16 * ref) << "x = " << x;
  }
  EXPECT_EQ(kernels::softmaxExp(0.0), 1.0);
  EXPECT_EQ(kernels::softmaxExp(-800.0), 0.0);   // below cutoff: pruned weight
  EXPECT_EQ(kernels::softmaxExp(-1e308), 0.0);
  EXPECT_EQ(kernels::softmaxExp(std::numeric_limits<Real>::quiet_NaN()), 0.0);
}

TEST(Kernels, BackendsBitIdenticalOnRandomShapes) {
  // Exact agreement (tolerance 0) between the scalar reference and every
  // other backend of every ISA tier the host runs, over randomized shapes:
  // ragged slot maps, non-multiple-of-4 head dims and key counts, pos = 0,
  // and len == maxLen.
  Rng rng(2024);
  struct Shape {
    Index batch, heads, headDim, pos, maxLen;
    bool ragged;
  };
  const Shape shapes[] = {
      {1, 1, 4, 0, 8, false},     // single row, first step
      {3, 2, 3, 4, 8, true},      // odd headDim: scalar tails in SIMD path
      {17, 4, 16, 31, 32, true},  // the acceptance shape (d_model 64, L 32)
      {64, 4, 16, 31, 32, false},
      {5, 2, 8, 7, 8, true},      // len == maxLen edge
      {2, 8, 5, 13, 21, true},    // ragged key count (no 4-multiple anywhere)
      {33, 3, 7, 30, 31, true},
  };
  for (const auto& s : shapes) {
    for (int trial = 0; trial < 3; ++trial) {
      Problem p(s.batch, s.heads, s.headDim, s.pos, s.maxLen, rng, s.ragged);
      const auto ref = p.run(KernelPolicy::kScalar);
      for (const KernelTable* tier : kernels::detail::hostTiers()) {
        const std::string name = tier->name;
        expectBitIdentical(ref, p.run(KernelPolicy::kSimd, *tier), name + " simd");
        expectBitIdentical(ref, p.run(KernelPolicy::kThreaded, *tier), name + " threaded");
        expectBitIdentical(ref, p.run(KernelPolicy::kAuto, *tier), name + " auto");
      }
    }
  }
}

TEST(Kernels, EmptyBatchIsANoOp) {
  Rng rng(7);
  Problem p(0, 4, 16, 3, 8, rng, false);
  for (auto policy : {KernelPolicy::kScalar, KernelPolicy::kSimd,
                      KernelPolicy::kThreaded, KernelPolicy::kAuto})
    EXPECT_TRUE(p.run(policy).empty());
}

TEST(Kernels, PolicyNamesAndResolution) {
  EXPECT_STREQ(kernels::kernelPolicyName(KernelPolicy::kScalar), "scalar");
  EXPECT_STREQ(kernels::kernelPolicyName(KernelPolicy::kSimd), "simd");
  EXPECT_STREQ(kernels::kernelPolicyName(KernelPolicy::kThreaded), "threaded");
  EXPECT_STREQ(kernels::kernelPolicyName(KernelPolicy::kAuto), "auto");
  // kAuto picks the threaded backend only past the tile threshold.
  EXPECT_EQ(kernels::resolvePolicy(KernelPolicy::kAuto, 1, 4), KernelPolicy::kSimd);
  EXPECT_EQ(kernels::resolvePolicy(KernelPolicy::kAuto, 256, 4), KernelPolicy::kThreaded);
  EXPECT_EQ(kernels::resolvePolicy(KernelPolicy::kScalar, 256, 4), KernelPolicy::kScalar);
}

namespace {

/// A training-attention problem (kernels::AttnTrainArgs): random q|k|v rows
/// and context gradients for `batch` samples of `window` rows.
struct TrainProblem {
  Index batch, window, heads, headDim, dModel;
  std::vector<Real> qkv, dCtx;

  TrainProblem(Index b, Index L, Index h, Index hd, Rng& rng)
      : batch(b), window(L), heads(h), headDim(hd), dModel(h * hd),
        qkv(static_cast<std::size_t>(b * L * 3 * h * hd)),
        dCtx(static_cast<std::size_t>(b * L * h * hd)) {
    for (auto& x : qkv) x = rng.normal();
    for (auto& x : dCtx) x = rng.normal();
  }

  [[nodiscard]] kernels::AttnTrainArgs args() const {
    kernels::AttnTrainArgs a;
    a.batch = batch;
    a.window = window;
    a.heads = heads;
    a.headDim = headDim;
    a.dModel = dModel;
    a.qkv = qkv.data();
    a.dCtx = dCtx.data();
    a.scale = 1.0 / std::sqrt(static_cast<Real>(headDim));
    return a;
  }

  /// Forward: (attn weights, context).  The weights start as NaN so an
  /// entry a backend forgets to write cannot pass.
  [[nodiscard]] std::pair<std::vector<Real>, std::vector<Real>> forward(
      KernelPolicy policy,
      const KernelTable& tier = kernels::detail::hostKernels()) const {
    std::vector<Real> attn(static_cast<std::size_t>(batch * heads * window * window),
                           std::numeric_limits<Real>::quiet_NaN());
    std::vector<Real> ctx(static_cast<std::size_t>(batch * window * dModel), 0.0);
    kernels::AttnTrainArgs a = args();
    a.attn = attn.data();
    a.ctx = ctx.data();
    kernels::detail::attnTrainForward(a, policy, tier);
    return {attn, ctx};
  }

  [[nodiscard]] std::vector<Real> backward(
      std::vector<Real> attn, KernelPolicy policy,
      const KernelTable& tier = kernels::detail::hostKernels()) const {
    std::vector<Real> dQkv(qkv.size(), 0.0);
    kernels::AttnTrainArgs a = args();
    a.attn = attn.data();
    a.dQkv = dQkv.data();
    kernels::detail::attnTrainBackward(a, policy, tier);
    return dQkv;
  }
};

/// Bitwise equality (tolerance 0; also tells -0.0 from +0.0).
bool sameBits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

constexpr KernelPolicy kNonScalarPolicies[] = {
    KernelPolicy::kSimd, KernelPolicy::kThreaded, KernelPolicy::kAuto};

}  // namespace

TEST(TrainAttention, BackendsBitIdenticalOnRaggedShapes) {
  // Window lengths straddling both lane widths, head widths below, at and
  // above a vector, single- and multi-head, empty and ragged batches, on
  // every ISA tier the host runs.
  Rng rng(77);
  for (Index L : {1, 7, 8, 9, 19, 33})
    for (Index hd : {1, 3, 4, 8})
      for (Index heads : {1, 4})
        for (Index batch : {0, 1, 5}) {
          const TrainProblem p(batch, L, heads, hd, rng);
          const auto ref = p.forward(KernelPolicy::kScalar);
          const auto refGrad = p.backward(ref.first, KernelPolicy::kScalar);
          for (const KernelTable* tier : kernels::detail::hostTiers())
            for (auto policy : kNonScalarPolicies) {
              const auto got = p.forward(policy, *tier);
              const std::string what =
                  std::string(tier->name) + " " + kernels::kernelPolicyName(policy) +
                  " L=" + std::to_string(L) + " hd=" + std::to_string(hd) +
                  " heads=" + std::to_string(heads) + " batch=" + std::to_string(batch);
              EXPECT_TRUE(sameBits(ref.first, got.first)) << "weights " << what;
              EXPECT_TRUE(sameBits(ref.second, got.second)) << "context " << what;
              EXPECT_TRUE(sameBits(refGrad, p.backward(ref.first, policy, *tier)))
                  << "dQkv " << what;
            }
        }
}

TEST(TrainAttention, UnderflowedWeightsTakeTheZeroGradientSkip) {
  // Keys alternate between +-30 along every feature against queries of 30,
  // so scores differ by thousands: the weights of the negative keys
  // underflow to exactly 0, and their dS is exactly 0 (the skipped terms).
  Rng rng(5);
  TrainProblem p(2, 9, 2, 4, rng);
  const Index d = p.dModel;
  for (Index r = 0; r < p.batch * p.window; ++r)
    for (Index t = 0; t < d; ++t) {
      p.qkv[static_cast<std::size_t>(r * 3 * d + t)] = 30.0;
      p.qkv[static_cast<std::size_t>(r * 3 * d + d + t)] = (r % 2 == 0) ? 30.0 : -30.0;
    }
  const auto ref = p.forward(KernelPolicy::kScalar);
  Index zeros = 0;
  for (Index i = 0; i < p.window; ++i)
    for (Index j = 0; j <= i; ++j)
      zeros += ref.first[static_cast<std::size_t>(i * p.window + j)] == 0.0 ? 1 : 0;
  EXPECT_GT(zeros, 0) << "no in-window weight underflowed";
  const auto refGrad = p.backward(ref.first, KernelPolicy::kScalar);
  for (auto policy : kNonScalarPolicies) {
    const auto got = p.forward(policy);
    EXPECT_TRUE(sameBits(ref.first, got.first)) << kernels::kernelPolicyName(policy);
    EXPECT_TRUE(sameBits(ref.second, got.second)) << kernels::kernelPolicyName(policy);
    EXPECT_TRUE(sameBits(refGrad, p.backward(ref.first, policy)))
        << kernels::kernelPolicyName(policy);
  }
}

namespace {

/// Deterministic fill so every (layer, position, feature) of a row's cache is
/// identifiable after arbitrary gather chains.
Real cell(Index row, Index layer, Index j, Index t) {
  return static_cast<Real>(((row * 131 + layer) * 257 + j) * 101 + t);
}

/// Write row prefixes of length `len` into the state's arena (both layouts)
/// as if decode steps had appended them; `rowTag[b]` identifies row b's data.
void fillState(DecodeState& st, const std::vector<Index>& rowTag, Index len) {
  st.len = len;
  for (Index b = 0; b < st.batch; ++b) {
    const Index slot = st.rowSlot[static_cast<std::size_t>(b)];
    const Index tag = rowTag[static_cast<std::size_t>(b)];
    for (Index l = 0; l < st.nLayers; ++l) {
      Real* k = st.kSlot(l, slot);
      Real* v = st.vSlot(l, slot);
      for (Index j = 0; j < len; ++j)
        for (Index t = 0; t < st.dModel; ++t) {
          k[t * st.maxLen + j] = cell(tag, l, j, t);
          v[j * st.dModel + t] = -cell(tag, l, j, t);
        }
    }
  }
}

/// Every live position of row b must still hold the data of logical row
/// `rowTag[b]` in both layouts.
void expectRows(const DecodeState& st, const std::vector<Index>& rowTag) {
  for (Index b = 0; b < st.batch; ++b) {
    const Index slot = st.rowSlot[static_cast<std::size_t>(b)];
    const Index tag = rowTag[static_cast<std::size_t>(b)];
    for (Index l = 0; l < st.nLayers; ++l) {
      const Real* k = st.kSlot(l, slot);
      const Real* v = st.vSlot(l, slot);
      for (Index j = 0; j < st.len; ++j)
        for (Index t = 0; t < st.dModel; ++t) {
          ASSERT_EQ(k[t * st.maxLen + j], cell(tag, l, j, t))
              << "K row " << b << " layer " << l << " pos " << j << " t " << t;
          ASSERT_EQ(v[j * st.dModel + t], -cell(tag, l, j, t))
              << "V row " << b << " layer " << l << " pos " << j << " t " << t;
        }
    }
  }
}

}  // namespace

TEST(DecodeStateArena, PermutationGatherMovesNoData) {
  DecodeState st;
  st.begin(6, 8, 4, 2);
  std::vector<Index> tags(6);
  std::iota(tags.begin(), tags.end(), Index{0});
  fillState(st, tags, 5);

  st.gather({5, 3, 0, 1, 4, 2});  // pure permutation: remap only
  EXPECT_EQ(st.batch, 6);
  EXPECT_EQ(st.sweepStats.gathers, 1);
  EXPECT_EQ(st.sweepStats.rowsCopied, 0);
  EXPECT_EQ(st.sweepStats.realsCopied, 0);
  EXPECT_EQ(st.sweepStats.grows, 0);
  expectRows(st, {5, 3, 0, 1, 4, 2});

  st.gather({1, 3});  // prune: still no bytes moved
  EXPECT_EQ(st.sweepStats.realsCopied, 0);
  expectRows(st, {3, 1});
}

TEST(DecodeStateArena, SplitGatherCopiesOnlyLivePositionsOfDuplicates) {
  const Index maxLen = 16, d = 4, layers = 3, len = 5;
  DecodeState st;
  st.begin(3, maxLen, d, layers);
  fillState(st, {0, 1, 2}, len);

  // Rows 0 and 2 split in two, row 1 pruned: 2 duplicates to copy.
  st.gather({0, 0, 2, 2});
  EXPECT_EQ(st.sweepStats.rowsCopied, 2);
  // The regression guard of the arena path: only len (not maxLen) positions
  // of the duplicated rows move — K and V, every layer.
  EXPECT_EQ(st.sweepStats.realsCopied, 2 * 2 * layers * len * d);
  expectRows(st, {0, 0, 2, 2});

  // Duplicated rows own distinct slots so later appends cannot collide.
  EXPECT_NE(st.rowSlot[0], st.rowSlot[1]);
  EXPECT_NE(st.rowSlot[2], st.rowSlot[3]);
}

TEST(DecodeStateArena, CapacityDoublesUnderFrontierGrowth) {
  const Index maxLen = 8, d = 3, layers = 2;
  DecodeState st;
  st.begin(1, maxLen, d, layers);
  fillState(st, {0}, 4);
  EXPECT_EQ(st.capacity, 1);

  // Repeated 2-way splits: 1 -> 2 -> 4 -> 8 rows, all clones of row 0.
  std::vector<Index> tags{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<Index> rows;
    for (Index b = 0; b < st.batch; ++b) {
      rows.push_back(b);
      rows.push_back(b);
    }
    const Index grows0 = st.sweepStats.grows;
    st.gather(rows);
    tags.assign(static_cast<std::size_t>(st.batch), 0);
    EXPECT_GE(st.sweepStats.grows - grows0, 1) << "round " << round;
    expectRows(st, tags);
  }
  EXPECT_EQ(st.batch, 8);
  EXPECT_GE(st.capacity, 8);

  // Slots stay exclusive across the whole frontier.
  std::vector<Index> sorted = st.rowSlot;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

TEST(DecodeStateArena, LenEqualsMaxLenGatherCopiesWholeRows) {
  const Index maxLen = 6, d = 2, layers = 1;
  DecodeState st;
  st.begin(2, maxLen, d, layers);
  fillState(st, {0, 1}, maxLen);  // cache completely full
  st.gather({1, 1, 0});
  EXPECT_EQ(st.sweepStats.rowsCopied, 1);
  EXPECT_EQ(st.sweepStats.realsCopied, 2 * layers * maxLen * d);
  expectRows(st, {1, 1, 0});
}

TEST(DecodeStateArena, BeginReusesAllocationAcrossSweeps) {
  DecodeState st;
  st.begin(4, 8, 4, 2);
  const Real* arena = st.arena.data();
  const Index cap = st.capacity;
  fillState(st, {0, 1, 2, 3}, 3);
  // Same layout, same or smaller batch: no reallocation, state fully reset.
  st.begin(4, 8, 4, 2);
  EXPECT_EQ(st.arena.data(), arena);
  EXPECT_EQ(st.len, 0);
  EXPECT_EQ(st.capacity, cap);
  st.begin(2, 8, 4, 2);
  EXPECT_EQ(st.arena.data(), arena);
  EXPECT_EQ(st.batch, 2);
  EXPECT_EQ(static_cast<Index>(st.freeSlots.size()), cap - 2);
  // Grown capacity from a gather is kept by later same-layout begins.
  st.gather({0, 0, 1, 1, 0, 1});
  const Index grownCap = st.capacity;
  EXPECT_GE(grownCap, 6);
  st.begin(5, 8, 4, 2);
  EXPECT_EQ(st.capacity, grownCap);
  // A layout change reallocates.
  st.begin(2, 16, 4, 2);
  EXPECT_EQ(st.maxLen, 16);
  EXPECT_EQ(st.capacity, 2);
}

TEST(DecodeStateArena, GatherRejectsOutOfRangeRows) {
  DecodeState st;
  st.begin(2, 4, 2, 1);
  EXPECT_THROW(st.gather({0, 2}), std::out_of_range);
  EXPECT_THROW(st.gather({-1}), std::out_of_range);
}

TEST(DecodeStateArena, DetachAttachRoundTripMovesNoBytes) {
  // The tile-suspension primitives of the BAS sweep engine: detaching rows
  // parks their slots (index work only), the shrunk view keeps decoding, and
  // attaching restores the parked rows untouched.  SweepStats separates this
  // zero-byte bookkeeping from real split copies.  Every slot is free, in
  // the view or parked, at every point.
  const Index maxLen = 8, d = 4, layers = 2, len = 4;
  DecodeState st;
  st.begin(6, maxLen, d, layers);
  fillState(st, {0, 1, 2, 3, 4, 5}, len);

  std::vector<Index> parked;
  st.detachRows(2, 6, parked);
  ASSERT_EQ(parked.size(), 4u);
  st.shrinkView(2);
  EXPECT_EQ(st.batch, 2);
  const auto slotsAccountedFor = [&](std::size_t nParked) {
    return static_cast<Index>(st.freeSlots.size() + st.rowSlot.size() + nParked);
  };
  EXPECT_EQ(slotsAccountedFor(parked.size()), st.capacity);
  EXPECT_EQ(st.sweepStats.detaches, 1);
  EXPECT_EQ(st.sweepStats.slotsDetached, 4);
  EXPECT_EQ(st.sweepStats.realsCopied, 0);
  expectRows(st, {0, 1});

  // The live tile splits: one duplicate copy, the parked rows untouched.
  st.gather({0, 1, 0});
  EXPECT_EQ(st.sweepStats.rowsCopied, 1);
  EXPECT_EQ(st.sweepStats.realsCopied, 2 * layers * len * d);
  expectRows(st, {0, 1, 0});
  EXPECT_EQ(slotsAccountedFor(parked.size()), st.capacity);

  // Tile done: release its rows, resume the parked tile where it left off.
  st.releaseRows();
  EXPECT_EQ(st.batch, 0);
  EXPECT_EQ(slotsAccountedFor(parked.size()), st.capacity);
  st.attachRows(parked, len);
  EXPECT_EQ(st.batch, 4);
  EXPECT_EQ(st.len, len);
  EXPECT_EQ(slotsAccountedFor(0), st.capacity);
  EXPECT_EQ(st.sweepStats.attaches, 1);
  EXPECT_EQ(st.sweepStats.realsCopied, 2 * layers * len * d);  // unchanged
  expectRows(st, {2, 3, 4, 5});
}

TEST(DecodeStateArena, GrowPreservesDetachedRows) {
  // An arena grow while tiles are parked copies every old slot whole into
  // the new arena at its old id, parked slots included — suspended frames
  // must resume untouched, though the arena keeps no record of them.
  const Index maxLen = 8, d = 3, layers = 2, len = 3;
  DecodeState st;
  st.begin(2, maxLen, d, layers);
  fillState(st, {0, 1}, len);
  EXPECT_EQ(st.capacity, 2);

  std::vector<Index> parked;
  st.detachRows(1, 2, parked);
  st.shrinkView(1);
  // The live row decodes past the parked one's length before it splits.
  fillState(st, {0}, len + 2);
  // Splitting the single live row needs a free slot: none exist (the parked
  // slot is not free), so the arena must grow — and keep the parked data.
  st.gather({0, 0, 0, 0});
  EXPECT_GE(st.sweepStats.grows, 1);
  expectRows(st, {0, 0, 0, 0});

  st.releaseRows();
  st.attachRows(parked, len);
  expectRows(st, {1});
}

TEST(DecodeStateArena, DetachRejectsBadRanges) {
  DecodeState st;
  st.begin(3, 4, 2, 1);
  std::vector<Index> slots;
  EXPECT_THROW(st.detachRows(1, 4, slots), std::out_of_range);
  EXPECT_THROW(st.detachRows(-1, 2, slots), std::out_of_range);
  EXPECT_THROW(st.shrinkView(4), std::out_of_range);
  EXPECT_THROW(st.shrinkView(-1), std::out_of_range);
}
