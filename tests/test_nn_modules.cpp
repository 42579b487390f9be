#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/attention.hpp"
#include "nn/modules.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"
#include "oracle.hpp"

using namespace nnqs;
using namespace nnqs::nn;

namespace {
/// Linear inference of x [rows, in] -> [rows, out].
std::vector<Real> linearOf(const Linear& lin, const std::vector<Real>& x) {
  const Index rows = static_cast<Index>(x.size()) / lin.w.shape[1];
  std::vector<Real> y(static_cast<std::size_t>(rows * lin.w.shape[0]));
  lin.forwardInto(x.data(), rows, y.data(), kernels::KernelPolicy::kAuto);
  return y;
}

/// n Gaussian values of the given std-dev.
std::vector<Real> randn(Rng& rng, Index n, Real stddev) {
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = stddev * rng.normal();
  return v;
}
}  // namespace

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 2, rng, "t");
  std::fill_n(lin.w.value, lin.w.numel(), 0.0);
  lin.b.value[0] = 1.5;
  lin.b.value[1] = -0.5;
  const std::vector<Real> y = linearOf(lin, std::vector<Real>(2 * 3));
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  EXPECT_DOUBLE_EQ(y[1], -0.5);
}

TEST(Linear, LinearityProperty) {
  Rng rng(2);
  Linear lin(4, 3, rng, "t");
  const std::vector<Real> x1 = randn(rng, 4, 1.0);
  const std::vector<Real> x2 = randn(rng, 4, 1.0);
  std::vector<Real> sum(4);
  for (int i = 0; i < 4; ++i) sum[i] = x1[i] + x2[i];
  const std::vector<Real> y1 = linearOf(lin, x1);
  const std::vector<Real> y2 = linearOf(lin, x2);
  const std::vector<Real> ys = linearOf(lin, sum);
  // f(a+b) = f(a) + f(b) - f(0) for affine maps.
  const std::vector<Real> y0 = linearOf(lin, std::vector<Real>(4));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(ys[i], y1[i] + y2[i] - y0[i], 1e-12);
}

TEST(LayerNorm, OutputNormalized) {
  Rng rng(3);
  LayerNorm ln(8, "t");
  const std::vector<Real> x = randn(rng, 4 * 8, 3.0);
  Tape tape;
  LayerNorm::TapeFrame f;
  const Real* y = ln.forwardTape(tape, f, x.data(), 4);
  for (int r = 0; r < 4; ++r) {
    Real mean = 0, var = 0;
    for (int i = 0; i < 8; ++i) mean += y[r * 8 + i];
    mean /= 8;
    for (int i = 0; i < 8; ++i) var += std::pow(y[r * 8 + i] - mean, 2);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  // GELU is a kernel call of the decoder block, not a module.
  const Real x[3] = {0.0, 100.0, -100.0};
  Real y[3];
  kernels::gelu(x, y, 3);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 100.0, 1e-6);
  EXPECT_NEAR(y[2], 0.0, 1e-6);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(4);
  Embedding emb(5, 3, 2, rng, "t");
  const std::vector<int> tokens = {1, 0, 2};  // one sequence of length 3
  Tape tape;
  const Real* y = emb.forwardTape(tape, tokens.data(), 3, 3);
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(y[0 * 2 + d],
                emb.token.value[1 * 2 + d] + emb.position.value[0 * 2 + d],
                1e-14);
    EXPECT_NEAR(y[2 * 2 + d],
                emb.token.value[2 * 2 + d] + emb.position.value[2 * 2 + d],
                1e-14);
  }
}

TEST(TransformerAR, CausalityOfLogits) {
  // Changing a later token must not change earlier positions' logits, not
  // even in the last bit.
  Rng rng(5);
  TransformerAR net(6, 16, 4, 2, rng);
  std::vector<int> tokens = {4, 1, 2, 0, 3, 1};
  const std::vector<Real> base = oracle::logits(net, tokens, 6);
  tokens[5] = 0;  // mutate the last token
  const std::vector<Real> mut = oracle::logits(net, tokens, 6);
  for (std::size_t pos = 0; pos < 5; ++pos)
    for (std::size_t t = 0; t < 4; ++t)
      EXPECT_EQ(base[pos * 4 + t], mut[pos * 4 + t]) << pos;
  // But the final position generally changes.
  Real diff = 0;
  for (std::size_t t = 0; t < 4; ++t) diff += std::abs(base[5 * 4 + t] - mut[5 * 4 + t]);
  EXPECT_GT(diff, 1e-8);
}

TEST(TransformerAR, PrefixWindowConsistency) {
  // Logits at position s computed from a window of length s+1 must equal the
  // same positions computed from the full window (the sampler relies on it),
  // bit for bit.
  Rng rng(6);
  TransformerAR net(5, 16, 4, 2, rng);
  const std::vector<int> full = {4, 0, 3, 1, 2};
  const std::vector<Real> all = oracle::logits(net, full, 5);
  for (std::size_t w = 1; w <= 5; ++w) {
    const std::vector<int> prefix(full.begin(), full.begin() + static_cast<long>(w));
    const std::vector<Real> part = oracle::logits(net, prefix, static_cast<Index>(w));
    for (std::size_t t = 0; t < 4; ++t)
      EXPECT_EQ(part[(w - 1) * 4 + t], all[(w - 1) * 4 + t]);
  }
}

TEST(ShapeCheck, AttentionRejectsRaggedWindows) {
  // 11 rows are not a whole number of 5-row windows: the stray row would be
  // computed from a zero attention context.  The attention tape forward, and
  // the transformer through it, must name the module, rows and window.
  Rng rng(8);
  const auto expectMessage = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(".attn"), std::string::npos) << msg;
      EXPECT_NE(msg.find("11 rows"), std::string::npos) << msg;
      EXPECT_NE(msg.find("windows of 5"), std::string::npos) << msg;
    }
  };
  TransformerAR net(5, 16, 4, 2, rng);
  const std::vector<int> tokens = {4, 0, 3, 1, 2, 4, 1, 1, 0, 3, 2};
  Tape tape;
  TransformerAR::TapeFrame netFrame;
  expectMessage([&] { net.forwardTape(tape, netFrame, tokens.data(), 11, 5); });

  CausalSelfAttention attn(16, 4, rng, "blk.attn");
  const std::vector<Real> x(11 * 16);
  CausalSelfAttention::TapeFrame frame;
  expectMessage([&] { attn.forwardTape(tape, frame, x.data(), 11, 5); });
  // Whole windows still run.
  EXPECT_NO_THROW(attn.forwardTape(tape, frame, x.data(), 10, 5));
}

TEST(ShapeCheck, BackwardOfAnUnrecordedTapeFrameNamesTheModule) {
  // A frame shaped like a record that no forwardTape filled is a caller bug:
  // backwardTape refuses it with the typed error instead of reading null.
  Rng rng(31);
  Linear lin(3, 2, rng, "enc.ff1");
  Tape tape;
  Linear::TapeFrame f;
  f.rows = 2;
  const Real dy[4] = {};
  try {
    lin.backwardTape(tape, f, dy);
    FAIL() << "expected StaleTapeError";
  } catch (const StaleTapeError& e) {
    EXPECT_NE(std::string(e.what()).find("enc.ff1"), std::string::npos) << e.what();
  }
}

TEST(ShapeCheck, BackwardAfterTapeResetNamesTheModule) {
  // A frame recorded before the last Tape::reset() points into arena memory
  // the next carve cycle reuses: every leaf module's backwardTape refuses it
  // by generation, naming the module, instead of reading reused spans.  The
  // phase MLP's backward starts at its output Linear, which refuses first.
  Rng rng(37);
  const std::vector<Real> x = randn(rng, 10 * 16, 1.0);
  const std::vector<Real> dy(10 * 48);
  const auto expectStale = [](const auto& call, const char* module) {
    try {
      call();
      ADD_FAILURE() << module << ": expected StaleTapeError";
    } catch (const StaleTapeError& e) {
      EXPECT_NE(std::string(e.what()).find(module), std::string::npos) << e.what();
    }
  };
  Tape tape;
  Linear lin(16, 48, rng, "blk.ff1");
  Linear::TapeFrame lf;
  lin.forwardTape(tape, lf, x.data(), 10);
  LayerNorm ln(16, "blk.ln1");
  LayerNorm::TapeFrame nf;
  ln.forwardTape(tape, nf, x.data(), 10);
  PhaseMlp mlp(16, 24, 2, rng);
  PhaseMlp::TapeFrame pf;
  mlp.forwardTape(tape, pf, x.data(), 10);
  CausalSelfAttention attn(16, 4, rng, "blk.attn");
  CausalSelfAttention::TapeFrame af;
  attn.forwardTape(tape, af, x.data(), 10, 5);

  tape.reset();
  expectStale([&] { lin.backwardTape(tape, lf, dy.data()); }, "blk.ff1");
  expectStale([&] { ln.backwardTape(tape, nf, dy.data()); }, "blk.ln1");
  expectStale([&] { mlp.backwardTape(tape, pf, dy.data()); }, "phase.out");
  expectStale([&] { attn.backwardTape(tape, af, dy.data()); }, "blk.attn");
}

TEST(EmptyBatch, ZeroRowsRecordAndBackpropOnAFreshTape) {
  // A zero-Real carve on a tape that never carved is null, so every fill of
  // a zero-row span must accept a null pointer (the asan-ubsan leg checks),
  // and the backward must leave the gradients untouched.
  Rng rng(41);
  CausalSelfAttention attn(16, 4, rng, "blk.attn");
  {
    Tape tape;
    CausalSelfAttention::TapeFrame f;
    const Real* y = attn.forwardTape(tape, f, nullptr, 0, 5);
    attn.backwardTape(tape, f, y);
  }
  TransformerAR net(5, 16, 4, 2, rng);
  Tape tape;
  TransformerAR::TapeFrame f;
  const Real* logits = net.forwardTape(tape, f, nullptr, 0, 5);
  net.backwardTape(tape, f, logits);
  std::vector<Parameter*> params;
  attn.collectParameters(params);
  net.collectParameters(params);
  for (const Parameter* p : params)
    for (Index i = 0; i < p->numel(); ++i) ASSERT_EQ(p->grad[i], 0.0) << p->name;
}

TEST(TapeCost, PerSampleCostMatchesTheMeasuredCarve) {
  // tapeRealsPerSample sizes the training step's tiles, so it must equal
  // what forwardTape + backwardTape carve.  With 8 samples every span is a
  // whole number of cache lines: the carve has no alignment slack.
  constexpr Index kSamples = 8;
  Rng rng(43);
  struct Shape {
    Index seqLen, dModel, heads, layers, window;
  };
  for (const Shape& s : {Shape{7, 16, 4, 2, 7}, Shape{7, 16, 4, 2, 5},
                         Shape{9, 8, 2, 1, 9}}) {
    TransformerAR net(s.seqLen, s.dModel, s.heads, s.layers, rng);
    std::vector<int> tokens(static_cast<std::size_t>(kSamples * s.window), 1);
    for (Index b = 0; b < kSamples; ++b)
      tokens[static_cast<std::size_t>(b * s.window)] = TransformerAR::kBos;
    Tape tape;
    TransformerAR::TapeFrame f;
    const Real* logits =
        net.forwardTape(tape, f, tokens.data(), kSamples * s.window, s.window);
    net.backwardTape(tape, f, logits);
    tape.reset();  // folds the cycle into highWater
    EXPECT_EQ(static_cast<Index>(tape.stats().highWater),
              kSamples * net.tapeRealsPerSample(s.window))
        << "d_model " << s.dModel << " window " << s.window;
  }
  PhaseMlp mlp(6, 24, 2, rng);
  const std::vector<Real> x = randn(rng, kSamples * 6, 1.0);
  Tape tape;
  PhaseMlp::TapeFrame f;
  const Real* phase = mlp.forwardTape(tape, f, x.data(), kSamples);
  mlp.backwardTape(tape, f, phase);
  tape.reset();
  EXPECT_EQ(static_cast<Index>(tape.stats().highWater),
            kSamples * mlp.tapeRealsPerSample());
}

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize ||x - c||^2 with AdamW (weight decay off).
  Parameter p({4}, "x");
  const Real target[4] = {1.0, -2.0, 0.5, 3.0};
  AdamWOptions opts;
  opts.lr = 0.05;
  opts.weightDecay = 0.0;
  AdamW opt({&p}, opts);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 4; ++i) p.grad[i] = 2.0 * (p.value[i] - target[i]);
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-3);
}

TEST(AdamW, RejectsParametersOutsideOneFlatStore) {
  // AdamW steps its list in one kernel call, so the list must lie back to
  // back in one value and one gradient buffer; two standalone modules' own
  // storage does not.
  Rng rng(5);
  Linear a(3, 2, rng, "a");
  Linear b(2, 1, rng, "b");
  std::vector<Parameter*> params;
  a.collectParameters(params);
  b.collectParameters(params);
  EXPECT_THROW(AdamW{params}, std::invalid_argument);
}

TEST(AdamW, ASliceHoldsOnlyItsOwnMoments) {
  // A slice [lo, hi) of the store holds hi - lo moments, and restoreState
  // takes exactly that many; slices outside the store are rejected.
  Parameter p({10}, "x");
  const AdamW whole({&p});
  EXPECT_FALSE(whole.sliced());
  EXPECT_EQ(whole.moments1().size(), 10u);
  AdamW opt({&p}, {}, AdamW::Slice{3, 7});
  EXPECT_TRUE(opt.sliced());
  EXPECT_EQ(opt.storeSize(), 10);
  EXPECT_EQ(opt.moments1().size(), 4u);
  EXPECT_EQ(opt.moments2().size(), 4u);
  EXPECT_THROW(opt.restoreState(std::vector<Real>(10), std::vector<Real>(10), 1),
               std::invalid_argument);
  EXPECT_THROW(opt.restoreState(std::vector<Real>(4), std::vector<Real>(3), 1),
               std::invalid_argument);
  EXPECT_NO_THROW(opt.restoreState(std::vector<Real>(4, 0.5), std::vector<Real>(4, 0.25), 2));
  EXPECT_EQ(opt.moments1()[3], 0.5);
  EXPECT_EQ(opt.stepCount(), 2);
  EXPECT_FALSE((AdamW{{&p}, {}, AdamW::Slice{0, 10}}.sliced()));
  EXPECT_EQ((AdamW{{&p}, {}, AdamW::Slice{4, 4}}.moments1().size()), 0u);
  for (const AdamW::Slice bad : {AdamW::Slice{-1, 3}, AdamW::Slice{5, 3}, AdamW::Slice{3, 11}})
    EXPECT_THROW((AdamW{{&p}, {}, bad}), std::invalid_argument) << bad.lo << ", " << bad.hi;
}

TEST(NoamSchedule, WarmupShape) {
  NoamSchedule sched(16, 100);
  // Rises during warmup, falls after.
  EXPECT_LT(sched.lr(1), sched.lr(50));
  EXPECT_LT(sched.lr(50), sched.lr(100));
  EXPECT_GT(sched.lr(100), sched.lr(400));
  // Peak value = dModel^-0.5 * warmup^-0.5.
  EXPECT_NEAR(sched.lr(100), 0.25 / 10.0, 1e-12);
}
