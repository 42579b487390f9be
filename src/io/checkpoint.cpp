#include "io/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "nn/optimizer.hpp"
#include "nqs/ansatz.hpp"

namespace nnqs::io {

namespace {

// ------------------------------------------------- little-endian primitives ---

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putF64(std::vector<std::uint8_t>& out, Real v) {
  putU64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t readU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t readU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

Real readF64(const std::uint8_t* p) {
  return std::bit_cast<Real>(readU64(p));
}

/// Bounds-checked parse cursor: every read names the field it serves, so a
/// short file throws TruncatedError with the exact spot that fell off the end.
struct Cursor {
  const std::uint8_t* p;
  std::size_t remaining;

  const std::uint8_t* take(std::size_t n, const std::string& field) {
    if (n > remaining) throw TruncatedError(field);
    const std::uint8_t* at = p;
    p += n;
    remaining -= n;
    return at;
  }
  std::uint32_t u32(const std::string& field) { return readU32(take(4, field)); }
  std::uint64_t u64(const std::string& field) { return readU64(take(8, field)); }
};

}  // namespace

// ------------------------------------------------------------------- crc32 ---

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  // Slicing-by-8 (reflected polynomial 0xEDB88320, IEEE 802.3): t[0] is the
  // byte-at-a-time table and t[k][i] the CRC of byte i followed by k zero
  // bytes, so eight table lookups fold eight bytes at once.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int k = 1; k < 8; ++k) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ readU32(p), hi = readU32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------------ writer ---

void CheckpointWriter::add(SectionKind kind, const std::string& name,
                           std::vector<std::uint8_t> payload) {
  for (const Section& s : sections_)
    if (s.name == name) throw SchemaError(name, "duplicate section name");
  sections_.push_back({kind, name, std::move(payload)});
}

void CheckpointWriter::addU64(const std::string& name, std::uint64_t v) {
  std::vector<std::uint8_t> payload;
  putU64(payload, v);
  add(SectionKind::kU64, name, std::move(payload));
}

void CheckpointWriter::addU64Array(const std::string& name,
                                   const std::uint64_t* p, std::size_t n) {
  std::vector<std::uint8_t> payload;
  payload.reserve(8 * n);
  for (std::size_t i = 0; i < n; ++i) putU64(payload, p[i]);
  add(SectionKind::kU64Array, name, std::move(payload));
}

void CheckpointWriter::addRealArray(const std::string& name, const Real* p,
                                    std::size_t n) {
  std::vector<std::uint8_t> payload;
  payload.reserve(8 * n);
  for (std::size_t i = 0; i < n; ++i) putF64(payload, p[i]);
  add(SectionKind::kRealArray, name, std::move(payload));
}

void CheckpointWriter::addBitsArray(const std::string& name,
                                    const std::vector<Bits128>& v) {
  std::vector<std::uint8_t> payload;
  payload.reserve(16 * v.size());
  for (const Bits128& b : v) {
    putU64(payload, b.lo);
    putU64(payload, b.hi);
  }
  add(SectionKind::kBitsArray, name, std::move(payload));
}

void CheckpointWriter::addTensor(const std::string& name, const std::vector<Index>& shape,
                                 const Real* data) {
  Index numel = 1;
  for (const Index d : shape) numel *= d;
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + 8 * shape.size() + 8 * static_cast<std::size_t>(numel));
  putU32(payload, static_cast<std::uint32_t>(shape.size()));
  for (const Index d : shape) putU64(payload, static_cast<std::uint64_t>(d));
  for (Index i = 0; i < numel; ++i) putF64(payload, data[i]);
  add(SectionKind::kTensor, name, std::move(payload));
}

std::vector<std::uint8_t> CheckpointWriter::serialize() const {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  putU32(out, kFormatVersion);
  putU32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    out.push_back(static_cast<std::uint8_t>(s.kind));
    putU32(out, static_cast<std::uint32_t>(s.name.size()));
    out.insert(out.end(), s.name.begin(), s.name.end());
    putU64(out, static_cast<std::uint64_t>(s.payload.size()));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
    putU32(out, crc32(s.payload.data(), s.payload.size()));
  }
  return out;
}

namespace {

/// Writes all `n` bytes at `p` to `fd` and flushes them to the disk.
bool writeAndSync(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return ::fsync(fd) == 0;
}

}  // namespace

void CheckpointWriter::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw CheckpointError("checkpoint save: cannot open " + tmp);
  const bool written = writeAndSync(fd, bytes.data(), bytes.size());
  if (::close(fd) != 0 || !written) {
    std::remove(tmp.c_str());  // a failed save leaves nothing beside <path>
    throw CheckpointError("checkpoint save: short write to " + tmp);
  }
  // The atomic publish: readers see either the old checkpoint or the
  // complete new one, never a torn file.  The data is on disk before the
  // rename, and the directory entry is flushed after it, so a power loss
  // cannot publish an empty file either.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint save: rename " + tmp + " -> " + path + " failed");
  }
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dirFd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  // EINVAL: a filesystem that cannot sync directories.
  const bool synced = dirFd >= 0 && (::fsync(dirFd) == 0 || errno == EINVAL);
  if (dirFd >= 0) ::close(dirFd);
  if (!synced)
    throw CheckpointError("checkpoint save: " + path +
                          " is in place, but its directory could not be flushed to disk");
}

// ------------------------------------------------------------------ reader ---

CheckpointReader::CheckpointReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw CheckpointError("checkpoint load: cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw CheckpointError("checkpoint load: cannot size " + path);
  bytes_.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes_.data()), size))
    throw CheckpointError("checkpoint load: short read of " + path);
  parse(path);
}

CheckpointReader::CheckpointReader(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {
  parse("<memory>");
}

void CheckpointReader::parse(const std::string& origin) {
  Cursor c{bytes_.data(), bytes_.size()};
  const std::uint8_t* magic = c.take(sizeof(kMagic), "magic");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i)
    if (magic[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw BadMagicError(origin);
  const std::uint32_t version = c.u32("version");
  if (version != kFormatVersion) throw VersionError(version, kFormatVersion);
  const std::uint32_t nSections = c.u32("sectionCount");

  for (std::uint32_t i = 0; i < nSections; ++i) {
    const std::string at = "section[" + std::to_string(i) + "]";
    const std::uint8_t kindByte = *c.take(1, at + ".kind");
    if (kindByte < static_cast<std::uint8_t>(SectionKind::kU64) ||
        kindByte > static_cast<std::uint8_t>(SectionKind::kTensor))
      throw SchemaError(at + ".kind",
                        "unknown section kind " + std::to_string(kindByte));
    const std::uint32_t nameLen = c.u32(at + ".nameLen");
    const std::uint8_t* nameBytes = c.take(nameLen, at + ".name");
    const std::string name(reinterpret_cast<const char*>(nameBytes), nameLen);
    const std::uint64_t payloadLen = c.u64(name + ".payloadLen");
    const std::uint8_t* payload =
        c.take(static_cast<std::size_t>(payloadLen), name + ".payload");
    const std::uint32_t storedCrc = c.u32(name + ".crc");
    if (storedCrc != crc32(payload, static_cast<std::size_t>(payloadLen)))
      throw CrcError(name);
    if (sections_.count(name) != 0)
      throw SchemaError(name, "duplicate section name");
    names_.push_back(name);
    sections_[name] = {static_cast<SectionKind>(kindByte),
                       static_cast<std::size_t>(payload - bytes_.data()),
                       static_cast<std::size_t>(payloadLen)};
  }
  if (c.remaining != 0)
    throw SchemaError("trailer", std::to_string(c.remaining) +
                                     " byte(s) after the last section");
}

bool CheckpointReader::has(const std::string& name) const {
  return sections_.count(name) != 0;
}

const CheckpointReader::Section& CheckpointReader::find(const std::string& name,
                                                        SectionKind kind) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) throw SchemaError(name, "section missing");
  if (it->second.kind != kind)
    throw SchemaError(name, "section kind mismatch");
  return it->second;
}

std::uint64_t CheckpointReader::getU64(const std::string& name) const {
  const Section& s = find(name, SectionKind::kU64);
  if (s.size != 8) throw SchemaError(name, "u64 payload size != 8");
  return readU64(payload(s));
}

std::vector<std::uint64_t> CheckpointReader::getU64Array(
    const std::string& name) const {
  const Section& s = find(name, SectionKind::kU64Array);
  if (s.size % 8 != 0)
    throw SchemaError(name, "u64-array payload not a multiple of 8 bytes");
  std::vector<std::uint64_t> out(s.size / 8);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = readU64(payload(s) + 8 * i);
  return out;
}

std::vector<Real> CheckpointReader::getRealArray(const std::string& name) const {
  const Section& s = find(name, SectionKind::kRealArray);
  if (s.size % 8 != 0)
    throw SchemaError(name, "real-array payload not a multiple of 8 bytes");
  std::vector<Real> out(s.size / 8);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = readF64(payload(s) + 8 * i);
  return out;
}

std::vector<Bits128> CheckpointReader::getBitsArray(const std::string& name) const {
  const Section& s = find(name, SectionKind::kBitsArray);
  if (s.size % 16 != 0)
    throw SchemaError(name, "bits-array payload not a multiple of 16 bytes");
  std::vector<Bits128> out(s.size / 16);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = Bits128(readU64(payload(s) + 16 * i), readU64(payload(s) + 16 * i + 8));
  return out;
}

std::uint64_t CheckpointReader::tensorValuesBound(std::string_view prefix) const {
  std::uint64_t n = 0;
  for (auto it = sections_.lower_bound(std::string(prefix));
       it != sections_.end() && it->first.starts_with(prefix); ++it)
    if (it->second.kind == SectionKind::kTensor) n += it->second.size / 8;
  return n;
}

void CheckpointReader::getTensor(const std::string& name, const std::vector<Index>& shape,
                                 Real* out) const {
  const Section& s = find(name, SectionKind::kTensor);
  Cursor c{payload(s), s.size};
  // The header is untrusted: it is compared with the wanted shape, never
  // used to size anything.
  bool same = c.u32(name + ".rank") == shape.size();
  Index numel = 1;
  for (std::size_t d = 0; same && d < shape.size(); ++d) {
    same = c.u64(name + ".dims") == static_cast<std::uint64_t>(shape[d]);
    numel *= shape[d];
  }
  if (!same) throw SchemaError(name, "stored tensor shape differs from the live one");
  if (c.remaining != 8 * static_cast<std::size_t>(numel))
    throw SchemaError(name, "tensor payload size does not match its shape");
  for (Index i = 0; i < numel; ++i) out[i] = readF64(c.p + 8 * i);
}

// ------------------------------------------------- net / optimizer adapters ---

namespace {

/// The "net.cfg.*" scalar fields, one place so save and load cannot drift.
/// `max` is the largest stored value the field's type holds.
struct CfgField {
  const char* name;
  std::uint64_t (*get)(const nqs::QiankunNetConfig&);
  void (*set)(nqs::QiankunNetConfig&, std::uint64_t);
  std::uint64_t max;
};

template <auto Member>
CfgField cfgField(const char* name) {
  using T = std::remove_reference_t<decltype(nqs::QiankunNetConfig{}.*Member)>;
  return {name,
          [](const nqs::QiankunNetConfig& c) { return static_cast<std::uint64_t>(c.*Member); },
          [](nqs::QiankunNetConfig& c, std::uint64_t v) { c.*Member = static_cast<T>(v); },
          static_cast<std::uint64_t>(std::numeric_limits<T>::max())};
}

const CfgField kCfgFields[] = {
    cfgField<&nqs::QiankunNetConfig::nQubits>("net.cfg.nQubits"),
    cfgField<&nqs::QiankunNetConfig::nAlpha>("net.cfg.nAlpha"),
    cfgField<&nqs::QiankunNetConfig::nBeta>("net.cfg.nBeta"),
    cfgField<&nqs::QiankunNetConfig::dModel>("net.cfg.dModel"),
    cfgField<&nqs::QiankunNetConfig::nHeads>("net.cfg.nHeads"),
    cfgField<&nqs::QiankunNetConfig::nDecoders>("net.cfg.nDecoders"),
    cfgField<&nqs::QiankunNetConfig::phaseHidden>("net.cfg.phaseHidden"),
    cfgField<&nqs::QiankunNetConfig::phaseHiddenLayers>("net.cfg.phaseHiddenLayers"),
    cfgField<&nqs::QiankunNetConfig::seed>("net.cfg.seed"),
};

}  // namespace

void addNet(CheckpointWriter& w, nqs::QiankunNet& net) {
  for (const CfgField& f : kCfgFields) w.addU64(f.name, f.get(net.config()));
  const auto& params = net.parameters();
  w.addU64("net.paramCount", params.size());
  for (const nn::Parameter* p : params) w.addTensor("param." + p->name, p->shape, p->value);
}

nqs::QiankunNetConfig readNetConfig(const CheckpointReader& r) {
  nqs::QiankunNetConfig cfg;
  for (const CfgField& f : kCfgFields) {
    const std::uint64_t v = r.getU64(f.name);
    if (v > f.max)
      throw SchemaError(f.name, std::to_string(v) + " does not fit the field's type");
    f.set(cfg, v);
  }
  if (const char* field = nqs::unrepresentableField(cfg))
    throw SchemaError(std::string("net.cfg.") + field,
                      "outside what the engine represents");
  return cfg;
}

void loadNet(const CheckpointReader& r, nqs::QiankunNet& net) {
  // Validate the whole checkpoint against the live net before touching a
  // single weight: a throw below leaves the net exactly as it was.
  for (const CfgField& f : kCfgFields) {
    // The init seed is not architecture: loading overwrites every weight the
    // seed produced, so a same-shaped net with a different seed is valid.
    if (std::string_view(f.name) == "net.cfg.seed") continue;
    if (r.getU64(f.name) != f.get(net.config()))
      throw SchemaError(f.name, "stored architecture differs from the live net");
  }
  const auto& params = net.parameters();
  if (r.getU64("net.paramCount") != params.size())
    throw SchemaError("net.paramCount", "parameter-list size mismatch");
  std::vector<Real> staged(static_cast<std::size_t>(net.parameterCount()));
  Real* at = staged.data();
  for (const nn::Parameter* p : params) {
    r.getTensor("param." + p->name, p->shape, at);
    at += p->numel();
  }
  std::copy(staged.begin(), staged.end(), net.values().begin());
}

std::unique_ptr<nqs::QiankunNet> makeNet(const CheckpointReader& r) {
  const nqs::QiankunNetConfig cfg = readNetConfig(r);
  // The net's store takes 16 bytes per parameter, so a crafted config could
  // ask for terabytes: build it only when the image holds that many values.
  const auto want = static_cast<std::uint64_t>(nqs::parameterCount(cfg));
  const std::uint64_t held = r.tensorValuesBound("param.");
  if (want > held)
    throw SchemaError("net.cfg", "the architecture holds " + std::to_string(want) +
                                     " parameters, the image's param.* tensors at most " +
                                     std::to_string(held) + " values");
  auto net = std::make_unique<nqs::QiankunNet>(cfg);
  loadNet(r, *net);
  return net;
}

void addOptimizer(CheckpointWriter& w, const nn::AdamW& opt) {
  if (opt.sliced())
    throw std::invalid_argument(
        "addOptimizer: the optimizer holds the moments of one slice of its store; gather "
        "every slice and pass the whole moments");
  addOptimizer(w, opt, opt.moments1(), opt.moments2());
}

void addOptimizer(CheckpointWriter& w, const nn::AdamW& opt, std::span<const Real> m,
                  std::span<const Real> v) {
  const auto n = static_cast<std::size_t>(opt.storeSize());
  if (m.size() != n || v.size() != n)
    throw std::invalid_argument("addOptimizer: moments must cover the optimizer's store");
  const auto& params = opt.parameters();
  w.addU64("opt.step", static_cast<std::uint64_t>(opt.stepCount()));
  w.addU64("opt.paramCount", params.size());
  std::size_t off = 0;
  for (const nn::Parameter* p : params) {
    w.addTensor("opt.m." + p->name, p->shape, m.data() + off);
    w.addTensor("opt.v." + p->name, p->shape, v.data() + off);
    off += static_cast<std::size_t>(p->numel());
  }
}

void loadOptimizer(const CheckpointReader& r, nn::AdamW& opt) {
  const auto& params = opt.parameters();
  const std::uint64_t step = r.getU64("opt.step");
  if (r.getU64("opt.paramCount") != params.size())
    throw SchemaError("opt.paramCount", "parameter-list size mismatch");
  const auto n = static_cast<std::size_t>(opt.storeSize());
  std::vector<Real> m(n), v(n);
  std::size_t off = 0;
  for (const nn::Parameter* p : params) {
    r.getTensor("opt.m." + p->name, p->shape, m.data() + off);
    r.getTensor("opt.v." + p->name, p->shape, v.data() + off);
    off += static_cast<std::size_t>(p->numel());
  }
  // Keep this optimizer's slice of the whole moments.
  const nn::AdamW::Slice own = opt.slice();
  for (std::vector<Real>* x : {&m, &v}) {
    x->erase(x->begin() + own.hi, x->end());
    x->erase(x->begin(), x->begin() + own.lo);
  }
  opt.restoreState(std::move(m), std::move(v), static_cast<long>(step));
}

}  // namespace nnqs::io
