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
  Tensor y = lin.forward(x, GradMode::kInference);
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
  const Tensor y1 = lin.forward(x1, GradMode::kInference);
  const Tensor y2 = lin.forward(x2, GradMode::kInference);
  const Tensor ys = lin.forward(sum, GradMode::kInference);
  // f(a+b) = f(a) + f(b) - f(0) for affine maps.
  const Tensor y0 = lin.forward(Tensor({1, 4}), GradMode::kInference);
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(ys.data[i], y1.data[i] + y2.data[i] - y0.data[i], 1e-12);
}

TEST(LayerNorm, OutputNormalized) {
  Rng rng(3);
  LayerNorm ln(8, "t");
  Tensor x({4, 8});
  x.randn(rng, 3.0);
  const Tensor y = ln.forward(x, GradMode::kInference);
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
  const Tensor y = g.forward(x, GradMode::kInference);
  EXPECT_NEAR(y.data[0], 0.0, 1e-12);
  EXPECT_NEAR(y.data[1], 100.0, 1e-6);
  EXPECT_NEAR(y.data[2], 0.0, 1e-6);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(4);
  Embedding emb(5, 3, 2, rng, "t");
  const std::vector<int> tokens = {1, 0, 2};  // one sequence of length 3
  const Tensor y = emb.forward(tokens, 3, GradMode::kInference);
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
  const Tensor base = net.forward(tokens, 6, GradMode::kInference);
  tokens[5] = 0;  // mutate the last token
  const Tensor mut = net.forward(tokens, 6, GradMode::kInference);
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
  const Tensor all = net.forward(full, 5, GradMode::kInference);
  for (int w = 1; w <= 5; ++w) {
    const std::vector<int> prefix(full.begin(), full.begin() + w);
    const Tensor part = net.forward(prefix, w, GradMode::kInference);
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
  expectMessage([&] { net.forward(tokens, 5, GradMode::kInference); });

  CausalSelfAttention attn(16, 4, 5, rng, "blk.attn");
  Tensor x({11, 16});
  expectMessage([&] { attn.forward(x, GradMode::kInference); });
  Tape tape;
  CausalSelfAttention::TapeFrame frame;
  expectMessage([&] { attn.forwardTape(tape, frame, x.data.data(), 11); });
  // Whole windows still run.
  Tensor ok({10, 16});
  EXPECT_EQ(attn.forward(ok, GradMode::kInference).numel(), 10 * 16);
}

// ---- stale-cache regression: a cache=false forward invalidates the cache,
// so a subsequent backward throws instead of silently computing gradients
// against the *previous* cached activations.

TEST(StaleCache, LinearThrowsAfterNonCachingForward) {
  Rng rng(21);
  Linear lin(3, 2, rng, "t");
  Tensor x({2, 3}), dy({2, 2});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  lin.forward(x, GradMode::kRecordTape);
  EXPECT_NO_THROW(lin.backward(dy));  // proper cached flow still works
  lin.forward(x, GradMode::kRecordTape);
  lin.forward(x, GradMode::kInference);  // invalidates: backward must not use the stale cache
  EXPECT_THROW(lin.backward(dy), std::logic_error);
  EXPECT_THROW(lin.backward(dy), std::logic_error);  // stays invalid
}

TEST(StaleCache, LayerNormThrowsAfterNonCachingForward) {
  Rng rng(22);
  LayerNorm ln(4, "t");
  Tensor x({3, 4}), dy({3, 4});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  ln.forward(x, GradMode::kRecordTape);
  EXPECT_NO_THROW(ln.backward(dy));
  ln.forward(x, GradMode::kRecordTape);
  ln.forward(x, GradMode::kInference);
  EXPECT_THROW(ln.backward(dy), std::logic_error);
}

TEST(StaleCache, GeluThrowsAfterNonCachingForward) {
  Rng rng(23);
  Gelu g;
  Tensor x({2, 5}), dy({2, 5});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  g.forward(x, GradMode::kRecordTape);
  EXPECT_NO_THROW(g.backward(dy));
  g.forward(x, GradMode::kRecordTape);
  g.forward(x, GradMode::kInference);
  EXPECT_THROW(g.backward(dy), std::logic_error);
}

TEST(StaleCache, TanhActThrowsAfterNonCachingForward) {
  Rng rng(24);
  TanhAct t;
  Tensor x({2, 5}), dy({2, 5});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  t.forward(x, GradMode::kRecordTape);
  EXPECT_NO_THROW(t.backward(dy));
  t.forward(x, GradMode::kRecordTape);
  t.forward(x, GradMode::kInference);
  EXPECT_THROW(t.backward(dy), std::logic_error);
}

TEST(StaleCache, EmbeddingThrowsAfterNonCachingForward) {
  Rng rng(25);
  Embedding emb(5, 4, 3, rng, "t");
  Tensor dy({2, 3});
  dy.randn(rng, 1.0);
  emb.forward({1, 2}, 2, GradMode::kRecordTape);
  EXPECT_NO_THROW(emb.backward(dy));
  emb.forward({1, 2}, 2, GradMode::kRecordTape);
  emb.forward({1, 2}, 2, GradMode::kInference);
  EXPECT_THROW(emb.backward(dy), std::logic_error);
}

TEST(StaleCache, AttentionThrowsAfterNonCachingForward) {
  Rng rng(26);
  CausalSelfAttention attn(8, 2, 3, rng, "t");
  Tensor x({6, 8}), dy({6, 8});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  attn.forward(x, GradMode::kRecordTape);
  EXPECT_NO_THROW(attn.backward(dy));
  attn.forward(x, GradMode::kRecordTape);
  attn.forward(x, GradMode::kInference);
  EXPECT_THROW(attn.backward(dy), std::logic_error);
  // A decode step is an inference forward too: it must invalidate as well.
  attn.forward(x, GradMode::kRecordTape);
  DecodeState st;
  st.begin(2, 3, 8, 1);
  st.ws.reset();
  Tensor step({2, 8});
  step.randn(rng, 1.0);
  Real* out = st.ws.alloc(2 * 8);
  attn.decodeStep(step.data.data(), 2, st, 0, out);
  EXPECT_THROW(attn.backward(dy), std::logic_error);
}

// ---- empty-batch regression: a *cached* zero-row forward is a valid cache
// (empty batches occur on ranks with no local samples); backward must be a
// no-op, not a logic_error — the old cachedTokens_.empty() sentinel conflated
// the two.

TEST(EmptyBatch, EmbeddingBackwardAfterCachedEmptyForwardIsNoOp) {
  Rng rng(27);
  Embedding emb(5, 4, 3, rng, "t");
  const Tensor y = emb.forward({}, 4, GradMode::kRecordTape);
  EXPECT_EQ(y.numel(), 0);
  Tensor dy({0, 3});
  EXPECT_NO_THROW(emb.backward(dy));
  for (Real v : emb.token.grad.data) EXPECT_EQ(v, 0.0);
  // Without any cached forward it still throws.
  emb.forward({}, 4, GradMode::kInference);
  EXPECT_THROW(emb.backward(dy), std::logic_error);
}

TEST(EmptyBatch, LinearCachedEmptyForwardBackwardIsNoOp) {
  Rng rng(28);
  Linear lin(3, 2, rng, "t");
  lin.forward(Tensor({0, 3}), GradMode::kRecordTape);
  Tensor dx;
  EXPECT_NO_THROW(dx = lin.backward(Tensor({0, 2})));
  EXPECT_EQ(dx.numel(), 0);
  for (Real v : lin.w.grad.data) EXPECT_EQ(v, 0.0);
}

// ---- shape-mismatch regression: inputs whose numel is not divisible by the
// feature width used to be silently truncated to whole rows.

TEST(ShapeCheck, LinearRejectsIndivisibleInput) {
  Rng rng(29);
  Linear lin(3, 2, rng, "t");
  Tensor bad({2, 4});  // 8 % 3 != 0
  EXPECT_THROW(lin.forward(bad, GradMode::kInference), std::invalid_argument);
  // backward: dy not divisible by out, and dy rows != cached rows.
  Tensor x({2, 3});
  x.randn(rng, 1.0);
  lin.forward(x, GradMode::kRecordTape);
  Tensor badDy({1, 3});  // 3 % 2 != 0
  EXPECT_THROW(lin.backward(badDy), std::invalid_argument);
  Tensor wrongRows({3, 2});  // divisible but 3 rows vs 2 cached
  EXPECT_THROW(lin.backward(wrongRows), std::invalid_argument);
}

TEST(ShapeCheck, LayerNormRejectsIndivisibleInput) {
  LayerNorm ln(4, "t");
  Tensor bad({2, 3});  // 6 % 4 != 0
  EXPECT_THROW(ln.forward(bad, GradMode::kInference), std::invalid_argument);
  Rng rng(30);
  Tensor x({2, 4});
  x.randn(rng, 1.0);
  ln.forward(x, GradMode::kRecordTape);
  Tensor badDy({3, 3});
  EXPECT_THROW(ln.backward(badDy), std::invalid_argument);
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

TEST(StaleCache, ErrorsNameTheModuleAndTheInvalidatingMode) {
  // StaleTapeError messages must be actionable: they name the module that
  // refused and the event that invalidated (or never produced) its
  // recording, in the typed-error style of io/checkpoint.hpp.
  Rng rng(27);
  Linear lin(3, 2, rng, "enc.ff1");
  Tensor x({2, 3}), dy({2, 2});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  auto expectError = [&](auto& mod, const char* name, const char* reason) {
    try {
      mod.backward(dy);
      FAIL() << "expected StaleTapeError for " << name;
    } catch (const StaleTapeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
  };
  // Fresh module: nothing has been recorded yet.
  expectError(lin, "enc.ff1", stale::kNeverRecorded);
  // Recorded, then invalidated by an inference-mode forward.
  lin.forward(x, GradMode::kRecordTape);
  lin.forward(x, GradMode::kInference);
  expectError(lin, "enc.ff1", stale::kInferenceForward);
  // Recorded, then explicitly invalidated.
  lin.forward(x, GradMode::kRecordTape);
  lin.invalidate();
  expectError(lin, "enc.ff1", stale::kExplicit);
  // Attention: a decode step names itself as the invalidator.
  CausalSelfAttention attn(8, 2, 3, rng, "blk0.attn");
  Tensor xa({6, 8}), dya({6, 8});
  xa.randn(rng, 1.0);
  dya.randn(rng, 1.0);
  attn.forward(xa, GradMode::kRecordTape);
  DecodeState st;
  st.begin(2, 3, 8, 1);
  st.ws.reset();
  Real* out = st.ws.alloc(2 * 8);
  attn.decodeStep(xa.data.data(), 2, st, 0, out);
  try {
    attn.backward(dya);
    FAIL() << "expected StaleTapeError after decodeStep";
  } catch (const StaleTapeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blk0.attn"), std::string::npos) << what;
    EXPECT_NE(what.find(stale::kDecodeStep), std::string::npos) << what;
  }
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(StaleCache, DeprecatedBoolForwardMapsOntoGradMode) {
  // The one-release bool overloads must behave exactly like the GradMode
  // spellings they forward to: true records, false runs inference and
  // invalidates.
  Rng rng(28);
  Linear lin(3, 2, rng, "t");
  Tensor x({2, 3}), dy({2, 2});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  const Tensor viaBool = lin.forward(x, true);
  EXPECT_NO_THROW(lin.backward(dy));
  const Tensor viaEnum = lin.forward(x, GradMode::kRecordTape);
  ASSERT_EQ(viaBool.data.size(), viaEnum.data.size());
  for (std::size_t i = 0; i < viaBool.data.size(); ++i)
    EXPECT_EQ(viaBool.data[i], viaEnum.data[i]) << i;
  lin.forward(x, false);  // inference: invalidates the recording above
  EXPECT_THROW(lin.backward(dy), StaleTapeError);
}
#pragma GCC diagnostic pop
