#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "io/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "nqs/ansatz.hpp"
#include "oracle.hpp"
#include "serve/amplitude_server.hpp"

using namespace nnqs;
using namespace nnqs::io;

namespace {

nqs::QiankunNetConfig smallConfig(std::uint64_t seed = 11) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 8;
  cfg.nAlpha = 2;
  cfg.nBeta = 2;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<Bits128> numberSector(int n, int na, int nb) {
  std::vector<Bits128> out;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits128 b{v, 0};
    int up = 0, down = 0;
    for (int q = 0; q < n; q += 2) up += b.get(q);
    for (int q = 1; q < n; q += 2) down += b.get(q);
    if (up == na && down == nb) out.push_back(b);
  }
  return out;
}

/// Exact bitwise equality, the checkpoint round-trip contract: NaN payloads
/// compare equal to themselves and -0.0 differs from +0.0, as the serialized
/// bytes do.
bool bitIdentical(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

/// A copy of a parameter's values.
std::vector<Real> values(const nn::Parameter& p) { return {p.value, p.value + p.numel()}; }

std::vector<std::uint8_t> netImage(nqs::QiankunNet& net) {
  CheckpointWriter w;
  addNet(w, net);
  return w.serialize();
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void putLe(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A one-section image whose tensor section `name` holds `payload` as is: a
/// header no writer produces.
std::vector<std::uint8_t> tensorImage(const std::string& name,
                                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  putLe(out, kFormatVersion, 4);
  putLe(out, 1, 4);  // section count
  out.push_back(static_cast<std::uint8_t>(SectionKind::kTensor));
  putLe(out, name.size(), 4);
  out.insert(out.end(), name.begin(), name.end());
  putLe(out, payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  putLe(out, crc32(payload.data(), payload.size()), 4);
  return out;
}

/// Store `value` in the u64 section `name` of `image`, re-stamping its CRC.
void patchU64(std::vector<std::uint8_t>& image, const std::string& name,
              std::uint64_t value) {
  const auto at = std::search(image.begin(), image.end(), name.begin(), name.end());
  ASSERT_NE(at, image.end()) << name;
  // The payload follows the name and the 8-byte payload length.
  const auto payload = at + static_cast<std::ptrdiff_t>(name.size()) + 8;
  std::vector<std::uint8_t> bytes;
  putLe(bytes, value, 8);
  putLe(bytes, crc32(bytes.data(), 8), 4);
  std::copy(bytes.begin(), bytes.end(), payload);
}

/// Byte offset of the first section's payload: header (8 magic + 4 version +
/// 4 count) + kind (1) + name length (4) + the name itself + payload length
/// (8).  The first section addNet emits is "net.cfg.nQubits".
constexpr std::size_t kFirstPayloadOffset = 16 + 1 + 4 + sizeof("net.cfg.nQubits") - 1 + 8;

}  // namespace

TEST(Checkpoint, Crc32MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  // Chaining partial computations matches a single pass.
  const std::uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

TEST(Checkpoint, PrimitiveSectionsRoundTrip) {
  CheckpointWriter w;
  w.addU64("a", 0xDEADBEEFCAFEBABEull);
  w.addU64Array("arr", std::vector<std::uint64_t>{1, 2, 3});
  w.addRealArray("reals", std::vector<Real>{0.1, -2.5e300, 0.0});
  w.addBitsArray("bits", {Bits128{5, 7}, Bits128{~0ull, 1}});
  const std::vector<Real> t = {1, 2, 3, 4, 5, 6};
  w.addTensor("tensor", {2, 3}, t.data());

  const CheckpointReader r(w.serialize());
  EXPECT_TRUE(r.has("a"));
  EXPECT_FALSE(r.has("nope"));
  EXPECT_EQ(r.getU64("a"), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.getU64Array("arr"), (std::vector<std::uint64_t>{1, 2, 3}));
  const auto reals = r.getRealArray("reals");
  ASSERT_EQ(reals.size(), 3u);
  EXPECT_EQ(reals[0], 0.1);
  EXPECT_EQ(reals[1], -2.5e300);
  const auto bits = r.getBitsArray("bits");
  ASSERT_EQ(bits.size(), 2u);
  EXPECT_EQ(bits[0].lo, 5u);
  EXPECT_EQ(bits[0].hi, 7u);
  EXPECT_EQ(bits[1].lo, ~0ull);
  std::vector<Real> back(6);
  r.getTensor("tensor", {2, 3}, back.data());
  EXPECT_TRUE(bitIdentical(back, t));
  // Section order is preserved.
  EXPECT_EQ(r.names().front(), "a");
  EXPECT_EQ(r.names().back(), "tensor");
}

TEST(Checkpoint, SaveLoadPsiBitIdenticalAcrossPolicies) {
  nqs::QiankunNet a(smallConfig(31));
  const std::string path = ::testing::TempDir() + "/ckpt_psi.bin";
  CheckpointWriter w;
  addNet(w, a);
  w.save(path);

  const CheckpointReader r(path);
  auto b = makeNet(r);  // architecture + weights from the file alone
  const auto sector = numberSector(8, 2, 2);
  std::vector<Real> la1, ph1, la2, ph2;
  a.evaluate(sector, la1, ph1, nn::GradMode::kInference);

  // The reloaded net must reproduce psi bit for bit on every inference
  // kernel (they are bit-identical to each other too), and its full-forward
  // oracle amplitudes must match as well.
  exec::ExecutionPolicy pol;
  for (const auto kernel : {nn::kernels::KernelPolicy::kScalar,
                            nn::kernels::KernelPolicy::kSimd}) {
    pol.kernel = kernel;
    b->setEvalPolicy(pol);
    b->evaluate(sector, la2, ph2, nn::GradMode::kInference);
    for (std::size_t i = 0; i < sector.size(); ++i) {
      EXPECT_EQ(la1[i], la2[i]) << "sample " << i;
      EXPECT_EQ(ph1[i], ph2[i]) << "sample " << i;
    }
  }
  const std::vector<Real> laOracle = oracle::logAmp(*b, sector);
  for (std::size_t i = 0; i < sector.size(); ++i)
    EXPECT_EQ(la1[i], laOracle[i]) << "sample " << i;
}

TEST(Checkpoint, SaveLoadSaveIsByteIdentical) {
  nqs::QiankunNet a(smallConfig(41));
  const auto bytes1 = netImage(a);
  const CheckpointReader r(bytes1);
  nqs::QiankunNet b(readNetConfig(r));
  loadNet(r, b);
  const auto bytes2 = netImage(b);
  EXPECT_EQ(bytes1, bytes2);
}

TEST(Checkpoint, OptimizerStateRoundTrips) {
  nqs::QiankunNet a(smallConfig(51));
  nn::AdamW optA(a.parameters());
  // Take a few steps so the moments and the counter are non-trivial.
  Rng rng(3);
  for (int it = 0; it < 3; ++it) {
    for (auto* p : a.parameters())
      for (Index i = 0; i < p->numel(); ++i) p->grad[i] = rng.normal();
    optA.step();
  }
  CheckpointWriter w;
  addNet(w, a);
  addOptimizer(w, optA);
  const CheckpointReader r(w.serialize());

  nqs::QiankunNet b(smallConfig(51));
  nn::AdamW optB(b.parameters());
  loadNet(r, b);
  loadOptimizer(r, optB);
  EXPECT_EQ(optB.stepCount(), optA.stepCount());
  EXPECT_TRUE(bitIdentical(optB.moments1(), optA.moments1()));
  EXPECT_TRUE(bitIdentical(optB.moments2(), optA.moments2()));
  // One more identical gradient step must now produce identical weights.
  Rng rngA(9), rngB(9);
  for (auto* p : a.parameters())
    for (Index i = 0; i < p->numel(); ++i) p->grad[i] = rngA.normal();
  for (auto* p : b.parameters())
    for (Index i = 0; i < p->numel(); ++i) p->grad[i] = rngB.normal();
  optA.step();
  optB.step();
  const auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t k = 0; k < pa.size(); ++k)
    EXPECT_TRUE(bitIdentical(values(*pb[k]), values(*pa[k]))) << pa[k]->name;
}

TEST(Checkpoint, OptimizerMomentsAreStoredWholeAndLoadIntoAnySlice) {
  // A sliced optimizer's image is written from the whole store's moments
  // (its ranks' slices, gathered) and reads back into any slicing: at P = 2
  // and P = 3 each rank's optimizer keeps exactly its slice of the whole
  // moments, and the gathered slices re-save the image byte for byte.
  nqs::QiankunNet net(smallConfig(53));
  nn::AdamW whole(net.parameters());
  Rng rng(4);
  for (int it = 0; it < 3; ++it) {
    for (Real& g : net.gradients()) g = rng.normal();
    whole.step();
  }
  CheckpointWriter w;
  addOptimizer(w, whole);
  const std::vector<std::uint8_t> image = w.serialize();
  const CheckpointReader r(image);
  const auto n = static_cast<std::size_t>(whole.storeSize());
  for (const std::size_t p : {2u, 3u}) {
    std::vector<Real> m(n), v(n);
    for (std::size_t q = 0; q < p; ++q) {
      const nn::AdamW::Slice s{static_cast<Index>(n * q / p), static_cast<Index>(n * (q + 1) / p)};
      nn::AdamW part(net.parameters(), {}, s);
      loadOptimizer(r, part);
      EXPECT_EQ(part.stepCount(), whole.stepCount());
      const std::vector<Real> wantM(whole.moments1().begin() + s.lo,
                                    whole.moments1().begin() + s.hi);
      const std::vector<Real> wantV(whole.moments2().begin() + s.lo,
                                    whole.moments2().begin() + s.hi);
      EXPECT_TRUE(bitIdentical(part.moments1(), wantM)) << "P " << p << ", rank " << q;
      EXPECT_TRUE(bitIdentical(part.moments2(), wantV)) << "P " << p << ", rank " << q;
      std::copy(part.moments1().begin(), part.moments1().end(), m.begin() + s.lo);
      std::copy(part.moments2().begin(), part.moments2().end(), v.begin() + s.lo);
      if (q == 0) {
        CheckpointWriter sliced;
        EXPECT_THROW(addOptimizer(sliced, part), std::invalid_argument);
        EXPECT_THROW(addOptimizer(sliced, part, part.moments1(), part.moments2()),
                     std::invalid_argument);
      }
    }
    nn::AdamW rank0(net.parameters(), {}, nn::AdamW::Slice{0, static_cast<Index>(n / p)});
    loadOptimizer(r, rank0);
    CheckpointWriter gathered;
    addOptimizer(gathered, rank0, m, v);
    EXPECT_EQ(gathered.serialize(), image) << "P " << p;
  }
}

TEST(Checkpoint, AtomicSaveSurvivesSimulatedCrash) {
  nqs::QiankunNet a(smallConfig(61));
  const std::string path = ::testing::TempDir() + "/ckpt_atomic.bin";
  CheckpointWriter w;
  addNet(w, a);
  w.save(path);
  const auto good = readFile(path);

  // Simulate a crash mid-write of the *next* checkpoint: a torn tmp file
  // exists, but <path> was never replaced — the last good checkpoint loads.
  {
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "NNQS";  // half a magic, then nothing
  }
  EXPECT_EQ(readFile(path), good);
  EXPECT_NO_THROW(CheckpointReader{path});

  // A subsequent successful save renames over both the torn tmp and the old
  // checkpoint.
  w.save(path);
  EXPECT_EQ(readFile(path), good);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "save() must not leave its tmp file behind";
}

TEST(Checkpoint, FailedSaveKeepsThePreviousImageAndLeavesNoTempFile) {
  // A short write (here: the file-size limit, under which write() fails with
  // EFBIG once SIGXFSZ is ignored) must throw CheckpointError, leave the
  // previous checkpoint byte for byte and remove the temp file.
  const std::string path = ::testing::TempDir() + "/ckpt_short_write.bin";
  nqs::QiankunNet a(smallConfig(63));
  CheckpointWriter first;
  addNet(first, a);
  first.save(path);
  const auto good = readFile(path);
  nqs::QiankunNet b(smallConfig(64));
  CheckpointWriter second;
  addNet(second, b);

  struct sigaction ignore {}, oldAction {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(sigaction(SIGXFSZ, &ignore, &oldAction), 0);
  rlimit oldLimit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &oldLimit), 0);
  rlimit small = oldLimit;
  small.rlim_cur = std::min<rlim_t>(good.size() / 2, oldLimit.rlim_max);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
  bool threw = false;
  try {
    second.save(path);
  } catch (const CheckpointError&) {
    threw = true;
  } catch (...) {
  }
  setrlimit(RLIMIT_FSIZE, &oldLimit);
  sigaction(SIGXFSZ, &oldAction, nullptr);

  EXPECT_TRUE(threw) << "save() under the file-size limit did not throw CheckpointError";
  EXPECT_EQ(readFile(path), good);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "save() left its temp file behind";
}

TEST(Checkpoint, BadMagicThrows) {
  nqs::QiankunNet a(smallConfig());
  auto bytes = netImage(a);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(CheckpointReader{bytes}, BadMagicError);

  const std::string path = ::testing::TempDir() + "/not_a_ckpt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint, just some text longer than a header";
  }
  EXPECT_THROW(CheckpointReader{path}, BadMagicError);
}

TEST(Checkpoint, VersionSkewThrows) {
  nqs::QiankunNet a(smallConfig());
  auto bytes = netImage(a);
  bytes[8] = 0xFF;  // version u32 LE at offset 8
  EXPECT_THROW(CheckpointReader{bytes}, VersionError);
}

TEST(Checkpoint, CrcMismatchNamesTheSection) {
  nqs::QiankunNet a(smallConfig());
  auto bytes = netImage(a);
  bytes[kFirstPayloadOffset] ^= 0x01;  // flip one payload bit
  try {
    CheckpointReader r(bytes);
    FAIL() << "corrupt payload must not parse";
  } catch (const CrcError& e) {
    EXPECT_NE(std::string(e.what()).find("net.cfg.nQubits"), std::string::npos);
  }
}

TEST(Checkpoint, TruncationThrowsAtEveryLayer) {
  nqs::QiankunNet a(smallConfig());
  const auto bytes = netImage(a);
  // Mid-header, mid-section-table, and mid-final-section cuts all surface as
  // TruncatedError (never a crash or a silent partial parse).
  for (const std::size_t keep :
       {std::size_t{10}, std::size_t{20}, kFirstPayloadOffset + 3,
        bytes.size() - 3}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(CheckpointReader{cut}, TruncatedError) << "keep=" << keep;
  }
  // Trailing garbage is also rejected: the format is self-delimiting.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(CheckpointReader{padded}, SchemaError);
}

TEST(Checkpoint, SchemaErrorsNameTheField) {
  nqs::QiankunNet a(smallConfig());
  const CheckpointReader r(netImage(a));
  EXPECT_THROW((void)r.getU64("does.not.exist"), SchemaError);
  // Kind mismatch: net.cfg.nQubits is a u64, not a real array.
  EXPECT_THROW(r.getRealArray("net.cfg.nQubits"), SchemaError);
  // Duplicate section names are rejected at add time.
  CheckpointWriter w;
  w.addU64("x", 1);
  EXPECT_THROW(w.addU64("x", 2), SchemaError);
}

TEST(Checkpoint, CorruptTensorHeaderNamesTheSection) {
  // A tensor header is untrusted: a rank its payload cannot hold, or dims
  // whose product overflows Index, must throw a SchemaError naming the
  // section, not size a vector by the header (rank 2^32 - 1 asks for
  // 32 GiB) or wrap the element count to 0 and load an empty tensor.
  const auto expectSchemaError = [](const std::vector<std::uint8_t>& payload,
                                    const char* what) {
    const CheckpointReader r(tensorImage("param.w", payload));
    try {
      std::vector<Real> out(8);
      r.getTensor("param.w", {2, 4}, out.data());
      ADD_FAILURE() << what << ": expected SchemaError";
    } catch (const SchemaError& e) {
      EXPECT_NE(std::string(e.what()).find("param.w"), std::string::npos) << e.what();
    }
  };
  std::vector<std::uint8_t> rank;
  putLe(rank, 0xFFFFFFFFu, 4);
  expectSchemaError(rank, "rank 2^32 - 1 in a 4-byte payload");
  std::vector<std::uint8_t> dims;
  putLe(dims, 2, 4);
  putLe(dims, std::uint64_t{1} << 62, 8);
  putLe(dims, 4, 8);
  expectSchemaError(dims, "dims {2^62, 4} and no data");
}

TEST(Checkpoint, MakeNetRejectsAStoredConfigTheEngineCannotRepresent) {
  // A stored net.cfg.* value the engine cannot represent, or one its field's
  // type cannot hold, is a SchemaError naming that field, thrown before a
  // net is built.
  nqs::QiankunNet a(smallConfig());
  const auto good = netImage(a);
  const std::pair<const char*, std::uint64_t> bad[] = {
      {"net.cfg.nQubits", 130},                     // beyond one Bits128
      {"net.cfg.nAlpha", 5},                        // 8 qubits hold 4 per spin
      {"net.cfg.nQubits", std::uint64_t{1} << 31},  // not an int
      {"net.cfg.nHeads", std::uint64_t{1} << 63},   // not an Index
  };
  for (const auto& [field, value] : bad) {
    auto image = good;
    patchU64(image, field, value);
    const CheckpointReader r(image);
    try {
      (void)makeNet(r);
      ADD_FAILURE() << field << " = " << value << ": expected SchemaError";
    } catch (const SchemaError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << " = " << value << ": " << e.what();
    }
  }
}

TEST(Checkpoint, MakeNetRejectsAStoredHeadCountOfZero) {
  // A stored nHeads of 0 would reach the attention's dModel / nHeads and
  // kill the process with SIGFPE: it is a SchemaError naming the field,
  // thrown before a net is built.
  nqs::QiankunNet a(smallConfig());
  auto image = netImage(a);
  patchU64(image, "net.cfg.nHeads", 0);
  const CheckpointReader r(image);
  try {
    (void)makeNet(r);
    ADD_FAILURE() << "expected SchemaError";
  } catch (const SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("net.cfg.nHeads"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, MakeNetRejectsAConfigLargerThanTheImage) {
  // A crafted image with valid CRCs whose net.cfg asks for a 1024-layer,
  // 16384-wide phase MLP (~2.7e11 parameters, ~4 TiB of store) is a
  // SchemaError thrown before the net is built, not an allocation failure
  // or the OOM killer.
  nqs::QiankunNet a(smallConfig());
  auto image = netImage(a);
  patchU64(image, "net.cfg.phaseHidden", 16384);
  patchU64(image, "net.cfg.phaseHiddenLayers", 1024);
  const CheckpointReader r(image);
  try {
    (void)makeNet(r);
    ADD_FAILURE() << "expected SchemaError";
  } catch (const SchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("net.cfg"), std::string::npos) << e.what();
  }
  // The server builds its net with makeNet before it starts a worker.
  EXPECT_THROW(serve::AmplitudeServer{r}, SchemaError);
}

TEST(Checkpoint, NetAndOptimizerImageIsPinned) {
  // The addNet + addOptimizer image of a fixed-seed net after three AdamW
  // steps on fixed gradients.  The CRC-32 and length were recorded from a
  // build that stored every parameter and moment as its own tensor, so the
  // flat store must write the same bytes.  Like tests/test_golden.cpp's
  // history, the image depends on the compiler and libm (the weight init),
  // not on build flags.
  nqs::QiankunNet net(smallConfig(81));
  nn::AdamW opt(net.parameters());
  for (std::size_t step = 0; step < 3; ++step) {
    const std::span<Real> g = net.gradients();
    for (std::size_t i = 0; i < g.size(); ++i)
      g[i] = 1e-3 * static_cast<Real>((i * 37 + step) % 101) - 0.05;
    opt.step();
  }
  CheckpointWriter w;
  addNet(w, net);
  addOptimizer(w, opt);
  const std::vector<std::uint8_t> image = w.serialize();
  EXPECT_EQ(image.size(), 202578u);
  EXPECT_EQ(crc32(image.data(), image.size()), 0x8456C3ADu);
}

TEST(Checkpoint, FailedLoadHasNoPartialSideEffects) {
  nqs::QiankunNet a(smallConfig(71));
  const CheckpointReader r(netImage(a));

  // Architecture mismatch: every weight of the target must stay untouched.
  nqs::QiankunNetConfig other = smallConfig(72);
  other.nQubits = 10;
  nqs::QiankunNet c(other);
  std::vector<std::vector<Real>> before;
  for (auto* p : c.parameters()) before.push_back(values(*p));
  EXPECT_THROW(loadNet(r, c), SchemaError);
  const auto after = c.parameters();
  for (std::size_t k = 0; k < after.size(); ++k)
    EXPECT_TRUE(bitIdentical(values(*after[k]), before[k])) << after[k]->name;

  // Optimizer: a checkpoint without optimizer sections fails the same way.
  nqs::QiankunNet b(smallConfig(71));
  nn::AdamW opt(b.parameters());
  EXPECT_THROW(loadOptimizer(r, opt), SchemaError);
  EXPECT_EQ(opt.stepCount(), 0);
}
