// google-benchmark microbenchmarks of the performance-critical kernels:
// Pauli algebra, packed-Hamiltonian group coefficients, LUT search, the
// transformer forward, a BAS expansion step, and the gradient reduction and
// optimizer step of the training iteration.  These are the ablation-level
// numbers behind Figs. 10-12.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <optional>

#include "bench_common.hpp"
#include "io/checkpoint.hpp"
#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/optimizer.hpp"
#include "nqs/sampler.hpp"
#include "parallel/comm.hpp"
#include "serve/amplitude_server.hpp"
#include "vmc/local_energy.hpp"

// ---- Allocation-counting hook ----------------------------------------------
// Every global operator new bumps a counter, so BM_DecodeStepSweep can assert
// the tape-backed decode path's zero-steady-state-allocation contract
// (the arena/tape growth paths use aligned_alloc and are covered by the
// reuse logic those benches also exercise).

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
std::uint64_t allocationCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace nnqs;
using namespace nnqs::bench;

namespace {

nn::kernels::KernelPolicy kernelArg(std::int64_t v) {
  switch (v) {
    case 0: return nn::kernels::KernelPolicy::kScalar;
    case 1: return nn::kernels::KernelPolicy::kSimd;
    default: return nn::kernels::KernelPolicy::kThreaded;
  }
}

const Pipeline& c2Pipeline() {
  static Pipeline p = [] {
    quietLogs();
    return buildPipeline("C2", "sto-3g");
  }();
  return p;
}

void BM_PauliMultiply(benchmark::State& state) {
  const auto a = ops::PauliString::fromString("XYZIXYZIXYZIXYZI");
  const auto b = ops::PauliString::fromString("ZZXXYYIIZZXXYYII");
  for (auto _ : state) benchmark::DoNotOptimize(ops::multiply(a, b));
}
BENCHMARK(BM_PauliMultiply);

void BM_PackedGroupCoefficient(benchmark::State& state) {
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(c2Pipeline().ham);
  Bits128 x = fromBitString("00000000111111111111");
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.groupCoefficient(k, x));
    k = (k + 1) % packed.nGroups();
  }
}
BENCHMARK(BM_PackedGroupCoefficient);

void BM_LutBinarySearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Bits128> keys(n);
  std::vector<Complex> psi(n, Complex{1.0, 0.0});
  Rng rng(3);
  for (auto& k : keys) k = Bits128{rng.next(), 0};
  const auto lut = vmc::WavefunctionLut::build(keys, psi);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.find(keys[i]));
    i = (i + 7919) % n;
  }
}
BENCHMARK(BM_LutBinarySearch)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_TransformerForward(benchmark::State& state) {
  const auto& p = c2Pipeline();
  nqs::QiankunNet net(paperNetConfig(p));
  const int batch = static_cast<int>(state.range(0));
  // `batch` draws from |Psi|^2: a sweep's unique samples, each repeated by
  // its count.
  nqs::SamplerOptions opts;
  opts.nSamples = static_cast<std::uint64_t>(batch);
  nqs::BasSweepEngine sampler(net);
  const nqs::SampleSet& set = sampler.sweep(opts);
  std::vector<Bits128> samples;
  for (std::size_t i = 0; i < set.nUnique(); ++i)
    samples.insert(samples.end(), static_cast<std::size_t>(set.weights[i]), set.samples[i]);
  std::vector<Real> la, ph;
  for (auto _ : state) {
    net.evaluate(samples, la, ph);
    benchmark::DoNotOptimize(la.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TransformerForward)->Arg(64)->Arg(512);

void BM_BasFullSweep(benchmark::State& state) {
  const auto& p = c2Pipeline();
  nqs::QiankunNet net(paperNetConfig(p));
  nqs::SamplerOptions opts;
  opts.nSamples = static_cast<std::uint64_t>(state.range(0));
  nqs::BasSweepEngine sampler(net);
  for (auto _ : state) {
    const nqs::SampleSet& set = sampler.sweep(opts);
    benchmark::DoNotOptimize(set.nUnique());
  }
}
BENCHMARK(BM_BasFullSweep)->Arg(1 << 10)->Arg(1 << 14);

// The BAS sweep at the acceptance scale of the incremental-decode engine:
// L = 32 sampling steps (64 qubits), d_model 16.  No molecule needed; the
// sweep cost is purely the transformer + tree bookkeeping.  One engine serves
// every iteration, so each timed sweep is warm, as in the VMC loop.
void BM_BasSweepL32(benchmark::State& state) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 64;  // L = 32 two-qubit sampling steps
  cfg.nAlpha = 8;
  cfg.nBeta = 8;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;  // phase MLP is not exercised by sampling
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 11;
  nqs::QiankunNet net(cfg);
  nqs::SamplerOptions opts;
  opts.nSamples = 1 << 12;
  std::uint64_t nu = 0;
  nqs::BasSweepEngine sampler(net);
  for (auto _ : state) {
    const nqs::SampleSet& set = sampler.sweep(opts);
    nu = set.nUnique();
    benchmark::DoNotOptimize(nu);
  }
  state.counters["Nu"] = static_cast<double>(nu);
}
BENCHMARK(BM_BasSweepL32)->Unit(benchmark::kMillisecond);

// End-to-end Stage 1 (sampling + ln|Psi| + phase) at the BM_BasSweepL32
// shape, fused vs separate: Arg 0 runs the sweep and then a separate
// teacher-forced evaluate over the unique samples (the pipeline before
// fusion), Arg 1 takes ln|Psi| from the sweep itself (it falls out of the
// split conditionals) plus the phase-MLP-only pass.  Both produce
// bit-identical (samples, logAmp, phase) (tests/test_sweep.cpp); the time
// ratio is the fusion speedup quoted in the README.  Both legs double as the
// zero-allocation assertion of the warm tiled sweep, and peakRssMiB records
// the resident high-water mark (process-wide, so comparable only within one
// bench invocation).
void BM_SweepFused(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 64;
  cfg.nAlpha = 8;
  cfg.nBeta = 8;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 11;
  nqs::QiankunNet net(cfg);
  nqs::BasSweepEngine engine(net);
  nqs::SamplerOptions opts;
  opts.nSamples = 1 << 12;
  std::vector<Real> logAmp, phase;
  // Warm-up sweeps: grow the arena/blocks, then let the frame pool's
  // capacities reach their fixpoint (popFrame's pool swaps permute block
  // capacities; convergence takes more rounds the deeper the stack, ~7 at
  // L = 32) — so warm adaptively until a whole sweep stays allocation-free.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t a0 = allocationCount();
    engine.sweep(opts);
    if (allocationCount() == a0) break;
  }
  std::uint64_t nu = 0, lastSweepAllocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs0 = allocationCount();
    const nqs::SampleSet& s = engine.sweep(opts);
    lastSweepAllocs = allocationCount() - allocs0;
    if (fused) {
      logAmp.assign(s.logAmp.begin(), s.logAmp.end());
      net.phases(s.samples, phase);
    } else {
      net.evaluate(s.samples, logAmp, phase);
    }
    nu = s.nUnique();
    benchmark::DoNotOptimize(logAmp.data());
    benchmark::DoNotOptimize(phase.data());
  }
  state.counters["Nu"] = static_cast<double>(nu);
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  state.counters["peakRssMiB"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  state.SetLabel(fused ? "fused" : "sweep+evaluate");
  if (lastSweepAllocs != 0) state.SkipWithError("warm sweep heap-allocated");
}
BENCHMARK(BM_SweepFused)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The decode-attention kernel in isolation, at the acceptance shape of the
// kernel-backend work: L = 32 (pos = 31, the deepest and most expensive
// step), d_model = 64, swept over frontier sizes and head counts.  The
// scalar/simd|threaded time ratio at frontier >= 256 is the kernel speedup
// quoted in the README (>= 3x required; on a single-core host the simd
// ratio carries it, on multi-core the threaded backend adds its factor).
void BM_DecodeAttnKernel(benchmark::State& state) {
  const auto policy = kernelArg(state.range(0));
  const auto frontier = static_cast<Index>(state.range(1));
  const auto heads = static_cast<Index>(state.range(2));
  const Index maxLen = 32, dModel = 64;
  const Index pos = maxLen - 1;

  Rng rng(17);
  // Same hugepage-backed storage as the DecodeState arena, so the bench
  // streams K/V at the same bandwidth as the real decode path.
  std::vector<Real> q(static_cast<std::size_t>(frontier * 3 * dModel));
  nn::kernels::HugeBuffer k, v;
  k.assignZero(static_cast<std::size_t>(frontier * dModel * maxLen));
  v.assignZero(static_cast<std::size_t>(frontier * maxLen * dModel));
  for (auto& x : q) x = rng.normal();
  for (std::size_t i = 0; i < k.size(); ++i) k.data()[i] = rng.normal();
  for (std::size_t i = 0; i < v.size(); ++i) v.data()[i] = rng.normal();
  std::vector<Index> slots(static_cast<std::size_t>(frontier));
  for (Index r = 0; r < frontier; ++r) slots[static_cast<std::size_t>(r)] = r;
  std::vector<Real> ctx(static_cast<std::size_t>(frontier * dModel));

  nn::kernels::DecodeAttnArgs a;
  a.batch = frontier;
  a.heads = heads;
  a.headDim = dModel / heads;
  a.dModel = dModel;
  a.pos = pos;
  a.maxLen = maxLen;
  a.q = q.data();
  a.qStride = 3 * dModel;
  a.k = k.data();
  a.v = v.data();
  a.slots = slots.data();
  a.ctx = ctx.data();
  a.scale = 1.0 / std::sqrt(static_cast<Real>(a.headDim));

  for (auto _ : state) {
    std::fill(ctx.begin(), ctx.end(), 0.0);
    nn::kernels::decodeAttention(a, policy);
    benchmark::DoNotOptimize(ctx.data());
  }
  state.SetItemsProcessed(state.iterations() * frontier * heads * (pos + 1));
  state.SetLabel(nn::kernels::kernelPolicyName(policy));
}
// Args: policy (0 = scalar reference, 1 = SIMD, 2 = SIMD + OpenMP tiles),
// frontier, heads.
BENCHMARK(BM_DecodeAttnKernel)
    ->Args({0, 64, 4})->Args({1, 64, 4})->Args({2, 64, 4})
    ->Args({0, 256, 4})->Args({1, 256, 4})->Args({2, 256, 4})
    ->Args({0, 256, 8})->Args({1, 256, 8})->Args({2, 256, 8})
    ->Args({0, 1024, 4})->Args({1, 1024, 4})->Args({2, 1024, 4});

// The training-attention kernels (the tape gradient's attention forward +
// backward) on a 256-sample batch, 4 heads: at the paper net's
// L = 19, d_model = 16 (head width 4, the train-c2h4o shape) and at L = 32,
// d_model = 64.  The scalar/simd ratio is the kernel speedup quoted in the
// README.
void BM_AttnTrainKernel(benchmark::State& state) {
  const auto policy = kernelArg(state.range(0));
  const auto L = static_cast<Index>(state.range(1));
  const auto dModel = static_cast<Index>(state.range(2));
  const Index batch = 256, heads = 4;
  Rng rng(23);
  std::vector<Real> qkv(static_cast<std::size_t>(batch * L * 3 * dModel));
  std::vector<Real> dCtx(static_cast<std::size_t>(batch * L * dModel));
  for (auto& x : qkv) x = rng.normal();
  for (auto& x : dCtx) x = rng.normal();
  std::vector<Real> attn(static_cast<std::size_t>(batch * heads * L * L));
  std::vector<Real> ctx(dCtx.size()), dQkv(qkv.size());

  nn::kernels::AttnTrainArgs a;
  a.batch = batch;
  a.window = L;
  a.heads = heads;
  a.headDim = dModel / heads;
  a.dModel = dModel;
  a.qkv = qkv.data();
  a.attn = attn.data();
  a.ctx = ctx.data();
  a.dCtx = dCtx.data();
  a.dQkv = dQkv.data();
  a.scale = 1.0 / std::sqrt(static_cast<Real>(a.headDim));
  for (auto _ : state) {
    std::fill(ctx.begin(), ctx.end(), 0.0);
    std::fill(dQkv.begin(), dQkv.end(), 0.0);
    nn::kernels::attnTrainForward(a, policy);
    nn::kernels::attnTrainBackward(a, policy);
    benchmark::DoNotOptimize(ctx.data());
    benchmark::DoNotOptimize(dQkv.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(nn::kernels::kernelPolicyName(policy));
}
// Args: policy (0 = scalar reference, 1 = SIMD, 2 = SIMD + OpenMP over
// samples), L, d_model.
BENCHMARK(BM_AttnTrainKernel)
    ->Args({0, 19, 16})->Args({1, 19, 16})->Args({2, 19, 16})
    ->Args({0, 32, 64})->Args({1, 32, 64})->Args({2, 32, 64})
    ->Unit(benchmark::kMicrosecond);

// The Linear GEMMs of the decode step in isolation: y = x W^T + b at the
// decode shapes (frontier 256, d_model 64): qkv 64->192, proj 64->64,
// ff1 64->256, ff2 256->64.  Impl -1 is the historical naive per-row loop
// (the pre-GEMM-backend Linear::forward, serial), 0/1/2 the kernels::gemm
// policies; the naive/simd time ratio is the single-core GEMM speedup quoted
// in the README (>= 2x required by the backend's acceptance bar).
void BM_LinearGemm(benchmark::State& state) {
  const std::int64_t impl = state.range(0);
  const auto rows = static_cast<Index>(state.range(1));
  const auto in = static_cast<Index>(state.range(2));
  const auto out = static_cast<Index>(state.range(3));
  Rng rng(23);
  std::vector<Real> x(static_cast<std::size_t>(rows * in));
  std::vector<Real> w(static_cast<std::size_t>(out * in));
  std::vector<Real> b(static_cast<std::size_t>(out));
  std::vector<Real> y(static_cast<std::size_t>(rows * out));
  for (auto& v : x) v = rng.normal();
  for (auto& v : w) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  if (impl < 0) {
    for (auto _ : state) {
      for (Index r = 0; r < rows; ++r) {
        const Real* xr = x.data() + r * in;
        Real* yr = y.data() + r * out;
        for (Index o = 0; o < out; ++o) {
          const Real* wo = w.data() + o * in;
          Real s = b[static_cast<std::size_t>(o)];
          for (Index i = 0; i < in; ++i) s += wo[i] * xr[i];
          yr[o] = s;
        }
      }
      benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel("naive");
  } else {
    const auto policy = kernelArg(impl);
    nn::kernels::GemmArgs g;
    g.m = rows;
    g.n = out;
    g.k = in;
    g.a = x.data();
    g.lda = in;
    g.b = w.data();
    g.ldb = in;
    g.transB = true;
    g.c = y.data();
    g.ldc = out;
    g.bias = b.data();
    for (auto _ : state) {
      nn::kernels::gemm(g, policy);
      benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel(nn::kernels::kernelPolicyName(policy));
  }
  // items = FLOPs (2 per multiply-add), so items/s is directly FLOP/s.
  state.SetItemsProcessed(state.iterations() * 2 * rows * in * out);
}
// Args: impl (-1 = historical naive loop, 0 = scalar reference, 1 = SIMD,
// 2 = SIMD + OpenMP row blocks), rows, in, out.  The decode shapes, then the
// phase MLP's 512 -> 512 layer at the few rows of late training (N_u per
// rank) up to a 64-row tile: both sides of the GEMM's pack-free row cutoff.
// 502 rows is the gradient tile QiankunNet::tapeTileRows gives the phase MLP
// at train-c2h4o (Stage 5 at the paper shape); BM_LinearGemmDx and
// BM_LinearGemmDw time that layer's two backward GEMMs at the same tile.
BENCHMARK(BM_LinearGemm)
    ->Args({-1, 256, 64, 192})->Args({0, 256, 64, 192})->Args({1, 256, 64, 192})->Args({2, 256, 64, 192})
    ->Args({-1, 256, 64, 64})->Args({1, 256, 64, 64})
    ->Args({-1, 256, 64, 256})->Args({1, 256, 64, 256})
    ->Args({-1, 256, 256, 64})->Args({1, 256, 256, 64})
    ->Args({-1, 4096, 64, 192})->Args({1, 4096, 64, 192})->Args({2, 4096, 64, 192})
    ->ArgsProduct({{1}, {1, 3, 8, 16, 64, 502}, {512}, {512}});

// Linear's input gradient dX = dY W (plain B: W [out, in] read row by row)
// at the phase layer's shapes.  Args: impl (as BM_LinearGemm), rows, in, out.
void BM_LinearGemmDx(benchmark::State& state) {
  const auto policy = kernelArg(state.range(0));
  const auto rows = static_cast<Index>(state.range(1));
  const auto in = static_cast<Index>(state.range(2));
  const auto out = static_cast<Index>(state.range(3));
  Rng rng(31);
  std::vector<Real> dy(static_cast<std::size_t>(rows * out));
  std::vector<Real> w(static_cast<std::size_t>(out * in));
  std::vector<Real> dx(static_cast<std::size_t>(rows * in));
  for (auto& v : dy) v = rng.normal();
  for (auto& v : w) v = rng.normal();
  nn::kernels::GemmArgs g;
  g.m = rows;
  g.n = in;
  g.k = out;
  g.a = dy.data();
  g.lda = out;
  g.b = w.data();
  g.ldb = in;
  g.c = dx.data();
  g.ldc = in;
  for (auto _ : state) {
    nn::kernels::gemm(g, policy);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * in * out);
  state.SetLabel(nn::kernels::kernelPolicyName(policy));
}
BENCHMARK(BM_LinearGemmDx)->ArgsProduct({{1}, {1, 3, 8, 16, 64, 502}, {512}, {512}});

// Training-side GEMM: the dW += dY^T X accumulation (transA, accumulate),
// which used to be a serial loop in Linear::backward, over `rows` samples.
void gemmAccumulateTN(benchmark::State& state, nn::kernels::KernelPolicy policy, Index rows,
                      Index in, Index out) {
  Rng rng(29);
  std::vector<Real> dy(static_cast<std::size_t>(rows * out));
  std::vector<Real> x(static_cast<std::size_t>(rows * in));
  std::vector<Real> dw(static_cast<std::size_t>(out * in));
  for (auto& v : dy) v = rng.normal();
  for (auto& v : x) v = rng.normal();
  nn::kernels::GemmArgs g;
  g.m = out;
  g.n = in;
  g.k = rows;
  g.a = dy.data();
  g.lda = out;
  g.transA = true;
  g.b = x.data();
  g.ldb = in;
  g.c = dw.data();
  g.ldc = in;
  g.accumulate = true;
  for (auto _ : state) {
    // Reset outside the timed region: without it the accumulator grows by
    // the same dY^T X every iteration and saturates to +-inf.
    state.PauseTiming();
    std::fill(dw.begin(), dw.end(), 0.0);
    state.ResumeTiming();
    nn::kernels::gemm(g, policy);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * in * out);
  state.SetLabel(nn::kernels::kernelPolicyName(policy));
}
// Arg: policy.  The decode-shape Linear (64 -> 192) over 4096 rows.
void BM_GemmAccumulateTN(benchmark::State& state) {
  gemmAccumulateTN(state, kernelArg(state.range(0)), 4096, 64, 192);
}
BENCHMARK(BM_GemmAccumulateTN)->Arg(0)->Arg(1)->Arg(2);
// Linear's weight gradient at the phase layer's training tile.  Args: impl
// (as BM_LinearGemm), rows, in, out.
void BM_LinearGemmDw(benchmark::State& state) {
  gemmAccumulateTN(state, kernelArg(state.range(0)), state.range(1), state.range(2),
                   state.range(3));
}
BENCHMARK(BM_LinearGemmDw)->Args({1, 502, 512, 512});

// End-to-end incremental decode: a full 32-step TransformerAR sweep at the
// acceptance shape (includes the qkv/ff matmuls around the attention kernel
// and the fused elementwise stages).  The DecodeState persists across
// iterations, so after the first (warm-up) sweep the KV arena and the step
// tape are reused — the hook-counted allocations of the final
// sweep must be exactly zero, and a regression in the zero-allocation decode
// contract fails the bench (and with it the CI perf smoke).
void BM_DecodeStepSweep(benchmark::State& state) {
  const auto policy = kernelArg(state.range(0));
  const Index L = 32, dModel = 64, heads = 4, layers = 2, batch = 256;
  Rng rng(5);
  nn::TransformerAR net(L, dModel, heads, layers, rng);
  nn::DecodeState ds;
  std::vector<int> tokens(static_cast<std::size_t>(batch));
  // Explicit warm-up sweep: grows the KV arena, the step tape and the
  // per-thread kernel scratch to steady state, so every timed iteration
  // (benchmark calls this function afresh for its estimation runs, sometimes
  // with a single iteration) exercises — and asserts — the warm path.
  {
    net.beginDecode(ds, batch, policy);
    Rng step(11);
    for (Index s = 0; s < L; ++s) {
      for (auto& t : tokens)
        t = s == 0 ? nn::TransformerAR::kBos : static_cast<int>(step.below(4));
      benchmark::DoNotOptimize(net.decodeStep(ds, tokens));
    }
  }
  std::uint64_t lastSweepAllocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs0 = allocationCount();
    net.beginDecode(ds, batch, policy);
    Rng step(11);
    for (Index s = 0; s < L; ++s) {
      for (auto& t : tokens)
        t = s == 0 ? nn::TransformerAR::kBos : static_cast<int>(step.below(4));
      benchmark::DoNotOptimize(net.decodeStep(ds, tokens));
    }
    lastSweepAllocs = allocationCount() - allocs0;
  }
  state.SetItemsProcessed(state.iterations() * batch * L);
  state.SetLabel(nn::kernels::kernelPolicyName(policy));
  state.counters["allocs/step"] =
      static_cast<double>(lastSweepAllocs) / static_cast<double>(L);
  state.counters["wsKiB"] = static_cast<double>(ds.ws.stats().highWater) *
                            sizeof(Real) / 1024.0;
  if (lastSweepAllocs != 0)
    state.SkipWithError("steady-state decode sweep heap-allocated");
}
BENCHMARK(BM_DecodeStepSweep)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Teacher-forced batched evaluate: the full forward onto one warm tape
// spanning the batch (TransformerAR::forwardTape, no backward — the forward
// the tests' oracle runs) vs. the library's tiled evaluate
// (TransformerAR::evaluateTiled at the tile QiankunNet::evaluate picks: the
// largest within kGradTapeBudgetBytes, tile-parallel under kAuto), at
// several L/batch shapes (d_model 64, 2 decoders — the BM_DecodeStepSweep
// acceptance architecture).  Both impls produce the same [B, L, 4] logits
// bit for bit (tests/test_evaluate.cpp).  The tiled variant doubles as the
// zero-allocation assertion of the warm teacher-forced evaluate: after the
// warm-up calls, an evaluateTiled over the full batch must perform zero heap
// allocations (operator-new hook).
void BM_Evaluate(benchmark::State& state) {
  const std::int64_t impl = state.range(0);  // 0 = one tape tile, 1 = tiled
  const auto L = static_cast<Index>(state.range(1));
  const auto batch = static_cast<Index>(state.range(2));
  const Index dModel = 64, heads = 4, layers = 2;
  Rng rng(5);
  nn::TransformerAR net(L, dModel, heads, layers, rng);
  std::vector<int> tokens(static_cast<std::size_t>(batch * L));
  Rng tok(11);
  for (Index b = 0; b < batch; ++b) {
    tokens[static_cast<std::size_t>(b * L)] = nn::TransformerAR::kBos;
    for (Index s = 1; s < L; ++s)
      tokens[static_cast<std::size_t>(b * L + s)] = static_cast<int>(tok.below(4));
  }

  if (impl == 0) {
    nn::Tape tape;
    nn::TransformerAR::TapeFrame frame;
    auto forward = [&] {
      tape.reset();
      return net.forwardTape(tape, frame, tokens.data(), batch * L, L);
    };
    // Warm-up: the first pass overflows into side chunks, the second reset
    // coalesces them into one block that every timed pass reuses.
    forward();
    forward();
    for (auto _ : state) benchmark::DoNotOptimize(forward());
    state.SetLabel("tape");
  } else {
    const Index tile = std::max<Index>(
        1, nn::TransformerAR::kGradTapeBudgetBytes /
               (net.tapeRealsPerSample(L) * static_cast<Index>(sizeof(Real))));
    std::vector<nn::TransformerAR::EvalTape> tapes;
    // One accumulator per tile: tiles may run on different threads, so the
    // sink writes only its own tile's slot.
    std::vector<Real> acc(static_cast<std::size_t>((batch + tile - 1) / tile));
    auto sweep = [&] {
      net.evaluateTiled(tapes, tokens, batch, L, tile, nn::kernels::KernelPolicy::kAuto,
                        [&](Index t0, Index tb, const Real* logits) {
                          acc[static_cast<std::size_t>(t0 / tile)] +=
                              logits[(tb * L - 1) * 4];
                        });
    };
    // Warm-up: the first pass grows the per-thread tapes, the second's tile
    // resets coalesce them into one block each that every timed pass reuses.
    sweep();
    sweep();
    std::uint64_t lastSweepAllocs = 0;
    for (auto _ : state) {
      const std::uint64_t allocs0 = allocationCount();
      sweep();
      lastSweepAllocs = allocationCount() - allocs0;
    }
    benchmark::DoNotOptimize(acc.data());
    state.SetLabel("tiled tape");
    state.counters["allocs/sweep"] = static_cast<double>(lastSweepAllocs);
    if (lastSweepAllocs != 0)
      state.SkipWithError("warm teacher-forced evaluate heap-allocated");
  }
  state.SetItemsProcessed(state.iterations() * batch * L);
}
// Args: impl (0 = one tape tile spanning the batch, 1 = tiled evaluate), L,
// batch.  L=32/batch=8192 is the acceptance shape — a batch big enough that
// the one-tile forward's B*L-row activations and [B, heads, L, L] attention
// leave cache, while each of the tiled evaluate's tiles stays within the
// tape budget; the smaller points show the crossover.
BENCHMARK(BM_Evaluate)
    ->Args({0, 32, 8192})->Args({1, 32, 8192})
    ->Args({0, 32, 2048})->Args({1, 32, 2048})
    ->Args({0, 16, 2048})->Args({1, 16, 2048})
    ->Unit(benchmark::kMillisecond);

// The full training step, evaluateGrad on its tape, at the BM_Evaluate
// architecture (d_model 64, 2 decoders): untiled (one tile per sub-network
// spanning the batch) vs. the default tiles, each sized to the tape budget
// (TransformerAR::kGradTapeBudgetBytes): at L = 32, 6 samples per amplitude
// tile (1.27 MiB of tape each) and 4,080 per phase tile (2 KB each, so the
// 2048 batch is one phase tile).  Both legs fill bit-identical parameter
// gradients (tests/test_evaluate.cpp); the interesting column is
// activationMiB, the tape arena's high-water mark — the peak activation
// memory of one step — which the tiled leg asserts stays within the budget.
// Both legs are also the warm zero-allocation assertion of the training
// step: after the cold step has grown the tape, token scratch, and frames,
// a same-shape step must perform zero heap allocations.
void BM_BackwardTiled(benchmark::State& state) {
  const bool tiled = state.range(0) == 1;  // 0 = one tile spanning the batch
  const int L = static_cast<int>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 2 * L;
  cfg.nAlpha = L / 2;
  cfg.nBeta = L / 2;
  cfg.dModel = 64;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 64;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 7;
  nqs::QiankunNet net(cfg);
  exec::ExecutionPolicy ex;
  ex.gradTileRows = tiled ? 0 : -1;  // 0 = engine default (budget-sized tiles)
  net.setEvalPolicy(ex);

  // Deterministic in-sector samples: nAlpha electrons on even qubits, nBeta
  // on odd, positions drawn per sample (rejection on collisions).
  Rng rng(11);
  std::vector<Bits128> samples(batch);
  for (auto& s : samples) {
    s = Bits128{};
    for (int spin = 0; spin < 2; ++spin) {
      int placed = 0;
      while (placed < cfg.nAlpha) {
        const int q =
            2 * static_cast<int>(rng.below(static_cast<std::uint64_t>(L))) +
            spin;
        if (!s.get(q)) {
          s.set(q, true);
          ++placed;
        }
      }
    }
  }
  std::vector<Real> dLa(batch), dPh(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    dLa[i] = 0.01 * (static_cast<Real>(i % 13) - 6.0);
    dPh[i] = 0.01 * (static_cast<Real>(i % 9) - 4.0);
  }

  net.evaluateGrad(samples, dLa, dPh);  // cold step: grows tape and frames

  std::uint64_t lastStepAllocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs0 = allocationCount();
    net.evaluateGrad(samples, dLa, dPh);
    lastStepAllocs = allocationCount() - allocs0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
  const double mib = 1024.0 * 1024.0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  state.counters["peakRssMiB"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  state.SetLabel(tiled ? "tiled" : "untiled");
  const auto tapeBytes =
      static_cast<Index>(net.gradTapeStats().highWater * sizeof(Real));
  state.counters["activationMiB"] = static_cast<double>(tapeBytes) / mib;
  state.counters["allocs/step"] = static_cast<double>(lastStepAllocs);
  if (lastStepAllocs != 0)
    state.SkipWithError("warm training step heap-allocated");
  else if (tiled && tapeBytes > nn::TransformerAR::kGradTapeBudgetBytes)
    state.SkipWithError("training tape outgrew the gradient tape budget");
}
// Args: impl (0 = untiled tape, 1 = budget-sized tiles), L, batch.
// L=32/batch=8192 is the acceptance shape of the memory claim (tiled
// activation memory independent of the batch); 2048 is the CI-gated point —
// small enough to time cheaply, same per-tile working set.
BENCHMARK(BM_BackwardTiled)
    ->Args({0, 32, 2048})->Args({1, 32, 2048})
    ->Args({0, 32, 8192})->Args({1, 32, 8192})
    ->Unit(benchmark::kMillisecond);

// The elementwise stages in isolation: GELU over the decode step's
// [256, 4*64] ff activations (op 0), the fused residual+LayerNorm over
// [256, 64] rows (op 1), and the phase MLP's tanh over one [256, 512]
// hidden tile (op 2).  Impl -1 is the historical code these kernels replaced
// (scalar std::tanh GELU; separate residual sweep + three-pass LayerNorm;
// the std::tanh loop), 0/1/2 the kernel policies; the naive/simd ratio is
// the elementwise speedup quoted in the README.
void BM_Elementwise(benchmark::State& state) {
  const std::int64_t op = state.range(0);
  const std::int64_t impl = state.range(1);
  const Index rows = 256, dim = op == 0 ? 256 : op == 1 ? 64 : 512;
  const char* opName = op == 0 ? "gelu/" : op == 1 ? "rln/" : "tanh/";
  const auto n = static_cast<std::size_t>(rows * dim);
  Rng rng(31);
  std::vector<Real> x(n), res(n), y(n), h(n);
  std::vector<Real> gamma(static_cast<std::size_t>(dim), 1.0);
  std::vector<Real> beta(static_cast<std::size_t>(dim), 0.0);
  for (auto& v : x) v = rng.normal();
  for (auto& v : res) v = rng.normal();

  if (impl < 0) {
    if (op == 0) {
      // Historical Gelu::forward body.
      for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
          const Real v = x[i];
          const Real t = std::tanh(0.7978845608028654 * (v + 0.044715 * v * v * v));
          y[i] = 0.5 * v * (1.0 + t);
        }
        benchmark::DoNotOptimize(y.data());
      }
    } else if (op == 2) {
      // Historical TanhAct::forward body.
      for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
        benchmark::DoNotOptimize(y.data());
      }
    } else {
      // Historical residual add + three-pass LayerNorm::forward body.
      for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) h[i] = x[i] + res[i];
        for (Index r = 0; r < rows; ++r) {
          const Real* xr = h.data() + r * dim;
          Real mean = 0;
          for (Index i = 0; i < dim; ++i) mean += xr[i];
          mean /= static_cast<Real>(dim);
          Real var = 0;
          for (Index i = 0; i < dim; ++i) var += (xr[i] - mean) * (xr[i] - mean);
          var /= static_cast<Real>(dim);
          const Real is = 1.0 / std::sqrt(var + 1e-5);
          Real* yr = y.data() + r * dim;
          for (Index i = 0; i < dim; ++i)
            yr[i] = gamma[static_cast<std::size_t>(i)] * ((xr[i] - mean) * is) +
                    beta[static_cast<std::size_t>(i)];
        }
        benchmark::DoNotOptimize(y.data());
      }
    }
    state.SetLabel(std::string(opName) + "naive");
  } else {
    const auto policy = kernelArg(impl);
    if (op == 0) {
      for (auto _ : state) {
        nn::kernels::gelu(x.data(), y.data(), rows * dim, policy);
        benchmark::DoNotOptimize(y.data());
      }
    } else if (op == 2) {
      for (auto _ : state) {
        nn::kernels::tanh(x.data(), y.data(), rows * dim, policy);
        benchmark::DoNotOptimize(y.data());
      }
    } else {
      nn::kernels::ResidualLnArgs a;
      a.rows = rows;
      a.dim = dim;
      a.x = x.data();
      a.res = res.data();
      a.gamma = gamma.data();
      a.beta = beta.data();
      a.h = h.data();
      a.y = y.data();
      for (auto _ : state) {
        nn::kernels::residualLayerNorm(a, policy);
        benchmark::DoNotOptimize(y.data());
      }
    }
    state.SetLabel(std::string(opName) + nn::kernels::kernelPolicyName(policy));
  }
  state.SetItemsProcessed(state.iterations() * rows * dim);
}
// Args: op (0 = GELU [256, 256], 1 = fused residual+LayerNorm [256, 64],
// 2 = tanh [256, 512]), impl (-1 = historical loops, 0 = scalar reference,
// 1 = SIMD, 2 = threaded).
BENCHMARK(BM_Elementwise)
    ->Args({0, -1})->Args({0, 0})->Args({0, 1})->Args({0, 2})
    ->Args({1, -1})->Args({1, 0})->Args({1, 1})->Args({1, 2})
    ->Args({2, -1})->Args({2, 0})->Args({2, 1})->Args({2, 2});

// Stage 6 of the VMC iteration (gradient reduction, optimizer step and, when
// sharded, the parameter allgather) at train-c2h4o's model size: the paper
// architecture at 38 qubits and 12 + 12 electrons, 290,181 parameters.
nqs::QiankunNetConfig stage6NetConfig() {
  Pipeline p;  // paperNetConfig reads only the shape
  p.nQubits = 38;
  p.mo.nAlpha = 12;
  p.mo.nBeta = 12;
  return paperNetConfig(p);
}
constexpr std::size_t kStage6Params = 290181;

// The gradient allreduce (reduceScatterSum, then allGatherSlices) on 4
// thread ranks over 290,181 doubles.  Each benchmark iteration runs one
// ThreadWorld and times kCalls successive allReduceSum calls inside it on
// rank 0 (manual time, per call), so thread start-up stays out of the
// figure.
void BM_AllReduceThreads(benchmark::State& state) {
  constexpr int kRanks = 4, kCalls = 8;
  parallel::ThreadWorld world(kRanks);
  std::vector<std::vector<Real>> bufs(kRanks, std::vector<Real>(kStage6Params));
  for (auto _ : state) {
    double seconds = 0;
    world.run([&](parallel::Comm& comm) {
      auto& b = bufs[static_cast<std::size_t>(comm.rank())];
      std::fill(b.begin(), b.end(), 1e-3 * static_cast<Real>(comm.rank() + 1));
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int c = 0; c < kCalls; ++c) comm.allReduceSum(b.data(), b.size());
      // The last call ends in a barrier, so every rank has finished here.
      if (comm.rank() == 0)
        seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                      .count();
    });
    benchmark::DoNotOptimize(bufs[0].data());
    benchmark::ClobberMemory();
    state.SetIterationTime(seconds / kCalls);
  }
  state.SetLabel("4 thread ranks");
}
BENCHMARK(BM_AllReduceThreads)->UseManualTime()->Unit(benchmark::kMillisecond);

// The optimizer step over the 290,181-parameter list as AdamW::step runs
// it: one kernels::adamw call over the net's flat value and gradient
// buffers, under kScalar (/0) or kSimd (/1).  The step zeroes the
// gradients, so fresh ones are copied into net.gradients() before each
// step, outside the timed region (manual time).  The warm step must make no
// heap allocation.
void BM_AdamWStep(benchmark::State& state) {
  const auto policy = kernelArg(state.range(0));
  nqs::QiankunNet net(stage6NetConfig());
  const std::span<Real> grad = net.gradients();
  const nn::AdamWOptions o;
  std::vector<Real> fresh(grad.size()), m(grad.size(), 0.0), v(grad.size(), 0.0);
  Rng rng(41);
  for (auto& x : fresh) x = 1e-2 * rng.normal();
  nn::kernels::AdamWArgs a;
  a.n = static_cast<Index>(grad.size());
  a.value = net.parameters().front()->value;
  a.grad = grad.data();
  a.m = m.data();
  a.v = v.data();
  a.lr = o.lr;
  a.beta1 = o.beta1;
  a.beta2 = o.beta2;
  a.eps = o.eps;
  a.weightDecay = o.weightDecay;
  long t = 0;
  const auto step = [&] {
    std::copy(fresh.begin(), fresh.end(), grad.begin());
    const auto t0 = std::chrono::steady_clock::now();
    ++t;
    a.bc1 = 1.0 - std::pow(o.beta1, static_cast<Real>(t));
    a.bc2 = 1.0 - std::pow(o.beta2, static_cast<Real>(t));
    nn::kernels::adamw(a, policy);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  step();  // cold
  std::uint64_t lastStepAllocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs0 = allocationCount();
    const double seconds = step();
    lastStepAllocs = allocationCount() - allocs0;
    benchmark::DoNotOptimize(a.value);
    benchmark::ClobberMemory();
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kStage6Params));
  state.SetLabel(std::string("adamw/") + nn::kernels::kernelPolicyName(policy));
  state.counters["allocs/step"] = static_cast<double>(lastStepAllocs);
  if (net.parameterCount() != static_cast<Index>(kStage6Params))
    state.SkipWithError("parameter list is not train-c2h4o's size");
  else if (lastStepAllocs != 0)
    state.SkipWithError("warm optimizer step heap-allocated");
}
// Arg: policy (0 = scalar reference, 1 = SIMD).
BENCHMARK(BM_AdamWStep)->Arg(0)->Arg(1)->UseManualTime()->Unit(benchmark::kMillisecond);

// The whole of Stage 6 on 4 thread ranks at the same size, each rank with
// its own copy of the store: /0 the replicated step (allReduceSum of the
// gradients, then AdamW over the whole store on every rank), /1 the sharded
// step runVmc takes (reduceScatterSum, AdamW over the rank's Comm::slice,
// allGatherSlices of the values).  Each benchmark iteration runs one
// ThreadWorld of kCalls steps.  Every rank copies fresh gradients in before
// a step, outside the timed region, and rank 0 times each step from a
// barrier to the barrier after every rank finished it (manual time, per
// step).  The warm steps must make no heap allocation on any rank.
void BM_Stage6Threads(benchmark::State& state) {
  constexpr int kRanks = 4, kCalls = 8;
  const bool sharded = state.range(0) == 1;
  std::vector<Real> fresh(kStage6Params);
  Rng rng(43);
  for (auto& x : fresh) x = 1e-2 * rng.normal();
  std::vector<nn::Parameter> stores;
  std::vector<nn::AdamW> optimizers;
  stores.reserve(kRanks);  // the optimizers point at the stores
  for (int r = 0; r < kRanks; ++r) {
    nn::Parameter& store =
        stores.emplace_back(std::vector<Index>{static_cast<Index>(kStage6Params)}, "store");
    std::fill(store.value, store.value + kStage6Params, 0.1);
    const parallel::Comm::Slice s = parallel::Comm::slice(kStage6Params, kRanks, r);
    optimizers.emplace_back(std::vector<nn::Parameter*>{&store}, nn::AdamWOptions{},
                            sharded ? std::optional<nn::AdamW::Slice>(
                                          {static_cast<Index>(s.lo), static_cast<Index>(s.hi)})
                                    : std::nullopt);
  }
  parallel::ThreadWorld world(kRanks);
  std::uint64_t warmAllocs = 0;
  for (auto _ : state) {
    double seconds = 0;
    world.run([&](parallel::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      nn::Parameter& store = stores[r];
      for (int c = 0; c < kCalls; ++c) {
        std::copy(fresh.begin(), fresh.end(), store.grad);
        // Read before the barrier, so every rank's step falls in the window.
        const std::uint64_t allocs0 = allocationCount();
        comm.barrier();
        const auto t0 = std::chrono::steady_clock::now();
        if (sharded) {
          comm.reduceScatterSum(store.grad, kStage6Params);
          optimizers[r].step();
          comm.allGatherSlices(store.value, kStage6Params);
        } else {
          comm.allReduceSum(store.grad, kStage6Params);
          optimizers[r].step();
        }
        comm.barrier();
        if (comm.rank() == 0) {
          seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                         .count();
          if (c > 0) warmAllocs += allocationCount() - allocs0;
        }
      }
    });
    benchmark::DoNotOptimize(stores[0].value);
    benchmark::ClobberMemory();
    state.SetIterationTime(seconds / kCalls);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kStage6Params));
  state.SetLabel(sharded ? "4 thread ranks, reduce-scatter + slice adamw + allgather"
                         : "4 thread ranks, allreduce + whole-store adamw");
  state.counters["allocs/step"] =
      static_cast<double>(warmAllocs) / static_cast<double>(state.iterations() * (kCalls - 1));
  if (warmAllocs != 0) state.SkipWithError("warm Stage 6 step heap-allocated");
}
// Arg: 0 = replicated step, 1 = sharded step.
BENCHMARK(BM_Stage6Threads)->Arg(0)->Arg(1)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_LocalEnergySample(benchmark::State& state) {
  const auto& p = c2Pipeline();
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
  nqs::QiankunNet net(paperNetConfig(p));
  nqs::SamplerOptions opts;
  opts.nSamples = 1 << 14;
  nqs::BasSweepEngine sampler(net);
  const nqs::SampleSet& set = sampler.sweep(opts);
  const auto psi = net.psi(set.samples);
  const auto lut = vmc::WavefunctionLut::build(set.samples, psi);
  for (auto _ : state) {
    const auto eloc =
        vmc::localEnergies(packed, set.samples, lut, vmc::ElocMode::kSaFuseLut);
    benchmark::DoNotOptimize(eloc.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(set.nUnique()));
}
BENCHMARK(BM_LocalEnergySample);

// The batched local-energy engine vs. the per-sample LUT engines at the
// fig10 acceptance shape (C2, N_s = 2^14).  Impl 0/1 are the per-sample
// binary-search engines (serial / OpenMP), 2/3 the batched hashed-probe engine
// (single-thread / threaded); the 0-vs-2 and 1-vs-3 time ratios are the
// batched-engine speedups quoted in the README (>= 2x acceptance bar at
// equal thread budget).  The warm-up run doubles as a correctness gate
// (tolerance-0 vs kSaFuseLut) and the timed batched runs assert the warm
// path's zero-heap-allocation contract via the operator-new hook.
void BM_ElocBatched(benchmark::State& state) {
  const std::int64_t impl = state.range(0);
  const auto& p = c2Pipeline();
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
  nqs::QiankunNet net(paperNetConfig(p));
  nqs::SamplerOptions opts;
  opts.nSamples = 1 << 14;
  nqs::BasSweepEngine sampler(net);
  const nqs::SampleSet& set = sampler.sweep(opts);
  const auto psi = net.psi(set.samples);
  const auto lut = vmc::WavefunctionLut::build(set.samples, psi);

  vmc::ElocBatchedOptions bOpts;
  bOpts.maxThreads = impl == 2 ? 1 : 0;
  std::vector<Complex> out(set.samples.size());
  vmc::ElocStats stats;
  if (impl >= 2) {
    // Warm-up: sizes every thread's tile workspace AND gates correctness.
    vmc::localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts,
                              &stats);
    const auto ref =
        vmc::localEnergies(packed, set.samples, lut, vmc::ElocMode::kSaFuseLut);
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i].real() != ref[i].real() || out[i].imag() != ref[i].imag()) {
        state.SkipWithError("batched E_loc differs from kSaFuseLut");
        return;
      }
  }

  std::uint64_t lastRunAllocs = 0;
  for (auto _ : state) {
    if (impl >= 2) {
      const std::uint64_t allocs0 = allocationCount();
      vmc::localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts,
                                &stats);
      lastRunAllocs = allocationCount() - allocs0;
      benchmark::DoNotOptimize(out.data());
    } else {
      const auto eloc = vmc::localEnergies(
          packed, set.samples, lut,
          impl == 0 ? vmc::ElocMode::kSaFuseLut
                    : vmc::ElocMode::kSaFuseLutParallel);
      benchmark::DoNotOptimize(eloc.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(set.nUnique()));
  switch (impl) {
    case 0: state.SetLabel("lut/serial"); break;
    case 1: state.SetLabel("lut/threads"); break;
    case 2: state.SetLabel("batched/1T"); break;
    default: state.SetLabel("batched/threads"); break;
  }
  if (impl >= 2) {
    state.counters["allocs/run"] = static_cast<double>(lastRunAllocs);
    state.counters["hit%"] =
        100.0 * static_cast<double>(stats.lutHits) /
        static_cast<double>(stats.termsEnumerated);
    if (lastRunAllocs != 0)
      state.SkipWithError("warm batched E_loc run heap-allocated");
  }
}
// Arg: 0 = kSaFuseLut (serial binary search), 1 = kSaFuseLutParallel,
// 2 = batched engine pinned to one thread, 3 = batched engine threaded.
BENCHMARK(BM_ElocBatched)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_EriShellQuartets(benchmark::State& state) {
  const auto mol = chem::makeMolecule("H2O");
  const auto basis = chem::buildBasis(mol, "sto-3g");
  for (auto _ : state) {
    const auto eri = integrals::computeEri(basis);
    benchmark::DoNotOptimize(eri.nStored());
  }
}
BENCHMARK(BM_EriShellQuartets);

// End-to-end amplitude serving at the C2 paper architecture: one client keeps
// a W-deep window of R-row tickets in flight against an AmplitudeServer
// loaded from an in-memory checkpoint, so the batcher genuinely coalesces
// across outstanding requests.  Doubles as the zero-allocation assertion of
// the warm serve loop (submit -> coalesce -> evaluateInto -> scatter): after
// an adaptive warm-up, a full request window must perform zero heap
// allocations across client *and* worker threads (global operator-new hook).
// Wall clock includes the batcher's deadline waits, hence UseRealTime.
void BM_ServeThroughput(benchmark::State& state) {
  const auto maxBatch = static_cast<Index>(state.range(0));
  const long maxDelayUs = state.range(1);
  constexpr int kWindow = 8;        // tickets in flight
  constexpr std::size_t kRows = 32; // rows per request
  constexpr int kRequests = 64;     // requests per measured window run

  const Pipeline& p = c2Pipeline();
  const auto cfg = paperNetConfig(p);
  nqs::QiankunNet net(cfg);
  io::CheckpointWriter w;
  io::addNet(w, net);
  const io::CheckpointReader ckpt(w.serialize());

  // Pool of valid (number-conserving) configurations, drawn deterministically.
  std::vector<Bits128> pool;
  {
    Rng rng(17);
    const int nOrb = cfg.nQubits / 2;
    std::vector<int> orbs(static_cast<std::size_t>(nOrb));
    for (int i = 0; i < nOrb; ++i) orbs[static_cast<std::size_t>(i)] = i;
    for (int s = 0; s < 512; ++s) {
      Bits128 x{0, 0};
      for (const int spin : {0, 1}) {
        for (int i = nOrb - 1; i > 0; --i)
          std::swap(orbs[static_cast<std::size_t>(i)],
                    orbs[static_cast<std::size_t>(rng.below(
                        static_cast<std::uint64_t>(i + 1)))]);
        const int fill = spin == 0 ? cfg.nAlpha : cfg.nBeta;
        for (int i = 0; i < fill; ++i)
          x.set(2 * orbs[static_cast<std::size_t>(i)] + spin);
      }
      pool.push_back(x);
    }
  }

  serve::ServeOptions opts;
  opts.nWorkers = 2;
  opts.maxBatch = maxBatch;
  opts.maxDelayUs = maxDelayUs;
  serve::AmplitudeServer server(ckpt, opts);

  std::vector<Real> la(kWindow * kRows), ph(kWindow * kRows);
  auto runWindow = [&] {
    serve::AmplitudeServer::Ticket tickets[kWindow];
    for (int i = 0; i < kRequests; ++i) {
      auto& t = tickets[i % kWindow];
      if (i >= kWindow) server.wait(t);  // retire the slot's previous request
      const Bits128* q =
          pool.data() + (static_cast<std::size_t>(i) * kRows) % (pool.size() - kRows);
      Real* outLa = la.data() + static_cast<std::size_t>(i % kWindow) * kRows;
      Real* outPh = ph.data() + static_cast<std::size_t>(i % kWindow) * kRows;
      while (server.submit(q, kRows, outLa, outPh, t) != serve::QueryStatus::kOk) {
      }
    }
    for (auto& t : tickets) server.wait(t);
  };

  // Adaptive warm-up: run windows until one completes allocation-free
  // (tapes, workspaces and coalescing buffers have all reached steady state).
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t a0 = allocationCount();
    runWindow();
    if (allocationCount() == a0) break;
  }
  std::uint64_t lastWindowAllocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs0 = allocationCount();
    runWindow();
    lastWindowAllocs = allocationCount() - allocs0;
  }
  server.shutdown();
  const serve::ServeStats st = server.stats();
  state.SetItemsProcessed(state.iterations() * kRequests * static_cast<std::int64_t>(kRows));
  state.counters["allocs/window"] = static_cast<double>(lastWindowAllocs);
  state.counters["p50us"] = st.latencyPercentileUs(50);
  state.counters["p99us"] = st.latencyPercentileUs(99);
  if (lastWindowAllocs != 0)
    state.SkipWithError("warm serve loop heap-allocated");
}
// Args: maxBatch, maxDelayUs.  256/200 is the production batcher shape; 64/50
// trades occupancy for latency (more, smaller flushes).
BENCHMARK(BM_ServeThroughput)
    ->Args({256, 200})->Args({64, 50})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
