#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/attention.hpp"
#include "nn/modules.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"

using namespace nnqs;
using namespace nnqs::nn;

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 2, rng, "t");
  lin.w.value.setZero();
  lin.b.value.data = {1.5, -0.5};
  Tensor x({2, 3});
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape[1], 2);
  EXPECT_DOUBLE_EQ(y.data[0], 1.5);
  EXPECT_DOUBLE_EQ(y.data[1], -0.5);
}

TEST(Linear, LinearityProperty) {
  Rng rng(2);
  Linear lin(4, 3, rng, "t");
  Tensor x1({1, 4}), x2({1, 4});
  x1.randn(rng, 1.0);
  x2.randn(rng, 1.0);
  Tensor sum({1, 4});
  for (int i = 0; i < 4; ++i) sum.data[i] = x1.data[i] + x2.data[i];
  const Tensor y1 = lin.forward(x1);
  const Tensor y2 = lin.forward(x2);
  const Tensor ys = lin.forward(sum);
  // f(a+b) = f(a) + f(b) - f(0) for affine maps.
  const Tensor y0 = lin.forward(Tensor({1, 4}));
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(ys.data[i], y1.data[i] + y2.data[i] - y0.data[i], 1e-12);
}

TEST(LayerNorm, OutputNormalized) {
  Rng rng(3);
  LayerNorm ln(8, "t");
  Tensor x({4, 8});
  x.randn(rng, 3.0);
  const Tensor y = ln.forward(x);
  for (int r = 0; r < 4; ++r) {
    Real mean = 0, var = 0;
    for (int i = 0; i < 8; ++i) mean += y.data[r * 8 + i];
    mean /= 8;
    for (int i = 0; i < 8; ++i) var += std::pow(y.data[r * 8 + i] - mean, 2);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  Gelu g;
  Tensor x({1, 3});
  x.data = {0.0, 100.0, -100.0};
  const Tensor y = g.forward(x);
  EXPECT_NEAR(y.data[0], 0.0, 1e-12);
  EXPECT_NEAR(y.data[1], 100.0, 1e-6);
  EXPECT_NEAR(y.data[2], 0.0, 1e-6);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(4);
  Embedding emb(5, 3, 2, rng, "t");
  const std::vector<int> tokens = {1, 0, 2};  // one sequence of length 3
  const Tensor y = emb.forward(tokens, 3);
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(y.data[0 * 2 + d],
                emb.token.value.data[1 * 2 + d] + emb.position.value.data[0 * 2 + d],
                1e-14);
    EXPECT_NEAR(y.data[2 * 2 + d],
                emb.token.value.data[2 * 2 + d] + emb.position.value.data[2 * 2 + d],
                1e-14);
  }
}

TEST(TransformerAR, CausalityOfLogits) {
  // Changing a later token must not change earlier positions' logits.
  Rng rng(5);
  TransformerAR net(6, 16, 4, 2, rng);
  std::vector<int> tokens = {4, 1, 2, 0, 3, 1};
  const Tensor base = net.forward(tokens, 6);
  tokens[5] = 0;  // mutate the last token
  const Tensor mut = net.forward(tokens, 6);
  for (int pos = 0; pos < 5; ++pos)
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(base.data[pos * 4 + t], mut.data[pos * 4 + t], 1e-12) << pos;
  // But the final position generally changes.
  Real diff = 0;
  for (int t = 0; t < 4; ++t) diff += std::abs(base.data[5 * 4 + t] - mut.data[5 * 4 + t]);
  EXPECT_GT(diff, 1e-8);
}

TEST(TransformerAR, PrefixWindowConsistency) {
  // Logits at position s computed from a window of length s+1 must equal the
  // same positions computed from the full window (the sampler relies on it).
  Rng rng(6);
  TransformerAR net(5, 16, 4, 2, rng);
  const std::vector<int> full = {4, 0, 3, 1, 2};
  const Tensor all = net.forward(full, 5);
  for (int w = 1; w <= 5; ++w) {
    const std::vector<int> prefix(full.begin(), full.begin() + w);
    const Tensor part = net.forward(prefix, w);
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(part.data[(w - 1) * 4 + t], all.data[(w - 1) * 4 + t], 1e-10);
  }
}

TEST(ShapeCheck, AttentionRejectsRaggedWindows) {
  // 11 rows are not a whole number of 5-row windows: the stray row would be
  // computed from a zero attention context.  Both attention forwards, and
  // the transformer through them, must name the module, rows and window.
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
  expectMessage([&] { net.forward(tokens, 5); });

  CausalSelfAttention attn(16, 4, rng, "blk.attn");
  Tensor x({11, 16});
  expectMessage([&] { attn.forward(x, 5); });
  Tape tape;
  CausalSelfAttention::TapeFrame frame;
  expectMessage([&] { attn.forwardTape(tape, frame, x.data.data(), 11, 5); });
  // Whole windows still run.
  Tensor ok({10, 16});
  EXPECT_EQ(attn.forward(ok, 5).numel(), 10 * 16);
}

// ---- shape-mismatch regression: inputs whose numel is not divisible by the
// feature width used to be silently truncated to whole rows.

TEST(ShapeCheck, LinearRejectsIndivisibleInput) {
  Rng rng(29);
  Linear lin(3, 2, rng, "t");
  Tensor bad({2, 4});  // 8 % 3 != 0
  EXPECT_THROW(lin.forward(bad), std::invalid_argument);
}

TEST(ShapeCheck, LayerNormRejectsIndivisibleInput) {
  LayerNorm ln(4, "t");
  Tensor bad({2, 3});  // 6 % 4 != 0
  EXPECT_THROW(ln.forward(bad), std::invalid_argument);
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

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize ||x - c||^2 with AdamW (weight decay off).
  Parameter p({4}, "x");
  const Real target[4] = {1.0, -2.0, 0.5, 3.0};
  AdamWOptions opts;
  opts.lr = 0.05;
  opts.weightDecay = 0.0;
  AdamW opt({&p}, opts);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 4; ++i) p.grad.data[i] = 2.0 * (p.value.data[i] - target[i]);
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p.value.data[i], target[i], 1e-3);
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
