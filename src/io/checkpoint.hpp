#pragma once

// Versioned, endian-explicit binary checkpoints for the NNQS engine.
//
// A checkpoint is a flat sequence of named, CRC-protected sections:
//
//   offset  size  field
//   0       8     magic "NNQSCKPT"
//   8       4     format version (u32 LE, currently 1)
//   12      4     section count (u32 LE)
//   then, per section:
//           1     kind (SectionKind)
//           4     name length (u32 LE)
//           n     name bytes (UTF-8, no NUL)
//           8     payload length in bytes (u64 LE)
//           p     payload (kind-specific, see below)
//           4     CRC-32 (IEEE 802.3) of the payload bytes (u32 LE)
//
// Payload encodings (everything little-endian, regardless of host):
//   kU64        8 bytes, one u64.
//   kU64Array   8 bytes per element.
//   kRealArray  8 bytes per element (IEEE-754 binary64 bit patterns).
//   kBitsArray  16 bytes per element (Bits128 as lo u64, hi u64).
//   kTensor     u32 rank, rank * i64 dims, then numel * f64 data — one
//               parameter (or moment) tensor: shape header + row-major
//               payload, written and read straight from the flat store.
//
// Contracts:
//  - Writers emit sections in insertion order and loaders never reorder, so
//    save -> load -> save is byte-identical (tests/test_checkpoint.cpp).
//  - f64 payloads round-trip *bit patterns* (std::bit_cast, not text), so a
//    reloaded net reproduces psi() bit for bit.
//  - CheckpointReader parses and CRC-validates the whole file up front; every
//    failure throws a typed error naming the offending field, and the
//    higher-level loaders (loadNet/loadOptimizer) validate *everything*
//    before mutating anything — a failed load has no partial side effects.
//  - CheckpointWriter::save() writes "<path>.tmp", flushes it to disk and
//    atomically renames it over <path>, so a crash or power loss mid-write
//    never corrupts the last good checkpoint; a failed save removes the
//    temp file.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace nnqs::nqs {
class QiankunNet;
struct QiankunNetConfig;
}  // namespace nnqs::nqs
namespace nnqs::nn {
class AdamW;
}  // namespace nnqs::nn

namespace nnqs::io {

// ------------------------------------------------------------------ errors ---

/// Base of every checkpoint failure; catch this to handle "bad file" as one
/// condition, or the concrete types below to distinguish them.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The file does not start with the NNQSCKPT magic (not a checkpoint at all).
class BadMagicError : public CheckpointError {
 public:
  explicit BadMagicError(const std::string& path)
      : CheckpointError("checkpoint magic mismatch (not an NNQSCKPT file): " +
                        path) {}
};

/// The file's format version is one this build cannot read.
class VersionError : public CheckpointError {
 public:
  VersionError(std::uint32_t got, std::uint32_t want)
      : CheckpointError("checkpoint version " + std::to_string(got) +
                        " unsupported (this build reads version " +
                        std::to_string(want) + ")") {}
};

/// A section's stored CRC does not match its payload (bit rot / torn write).
class CrcError : public CheckpointError {
 public:
  explicit CrcError(const std::string& section)
      : CheckpointError("checkpoint CRC mismatch in section '" + section + "'") {}
};

/// The file ended before the named field was complete (short read).
class TruncatedError : public CheckpointError {
 public:
  explicit TruncatedError(const std::string& field)
      : CheckpointError("checkpoint truncated reading field '" + field + "'") {}
};

/// Structurally valid file whose contents don't match what the loader needs
/// (missing section, kind mismatch, shape/config mismatch, duplicate name).
class SchemaError : public CheckpointError {
 public:
  SchemaError(const std::string& field, const std::string& detail)
      : CheckpointError("checkpoint schema error at '" + field + "': " + detail) {}
};

// ------------------------------------------------------------------ format ---

inline constexpr char kMagic[8] = {'N', 'N', 'Q', 'S', 'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kFormatVersion = 1;

enum class SectionKind : std::uint8_t {
  kU64 = 1,
  kU64Array = 2,
  kRealArray = 3,
  kBitsArray = 4,
  kTensor = 5,
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the per-section integrity
/// check.  `seed` chains partial computations (pass a previous result).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

// ------------------------------------------------------------------ writer ---

/// Accumulates named sections and serializes them in insertion order.  Names
/// must be unique (duplicates throw SchemaError at add time).
class CheckpointWriter {
 public:
  void addU64(const std::string& name, std::uint64_t v);
  void addU64Array(const std::string& name, const std::uint64_t* p, std::size_t n);
  void addU64Array(const std::string& name, const std::vector<std::uint64_t>& v) {
    addU64Array(name, v.data(), v.size());
  }
  void addRealArray(const std::string& name, const Real* p, std::size_t n);
  void addRealArray(const std::string& name, const std::vector<Real>& v) {
    addRealArray(name, v.data(), v.size());
  }
  void addBitsArray(const std::string& name, const std::vector<Bits128>& v);
  /// A kTensor section: `shape`, then its product-of-dims values from `data`.
  void addTensor(const std::string& name, const std::vector<Index>& shape,
                 const Real* data);

  /// The full file image (magic + version + sections, each CRC-stamped).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Atomic save: serialize to "<path>.tmp", fsync it, rename it over
  /// <path>, then fsync <path>'s directory.  A crash or power loss anywhere
  /// leaves the previous <path> or the complete new one.  Throws
  /// CheckpointError on any failure; a failure before the rename also
  /// removes the temp file and leaves <path> as it was.
  void save(const std::string& path) const;

 private:
  struct Section {
    SectionKind kind;
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  void add(SectionKind kind, const std::string& name,
           std::vector<std::uint8_t> payload);

  std::vector<Section> sections_;
};

// ------------------------------------------------------------------ reader ---

/// Parses and fully validates a checkpoint image up front (bounds-checked
/// cursor, per-section CRC); the typed getters then throw SchemaError on
/// missing names or kind mismatches.  Section order is preserved in names().
/// The reader keeps the image in one buffer, and each section is an offset
/// and a length into it.
class CheckpointReader {
 public:
  /// Load (one read of the whole file) and validate.  Throws the typed
  /// errors above.
  explicit CheckpointReader(const std::string& path);
  /// Parse an in-memory image (the serialize() format).
  explicit CheckpointReader(std::vector<std::uint8_t> bytes);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::uint64_t getU64(const std::string& name) const;
  [[nodiscard]] std::vector<std::uint64_t> getU64Array(const std::string& name) const;
  [[nodiscard]] std::vector<Real> getRealArray(const std::string& name) const;
  [[nodiscard]] std::vector<Bits128> getBitsArray(const std::string& name) const;
  /// Read kTensor section `name` into out[0, product of dims).  Throws
  /// SchemaError naming the section unless its stored shape is `shape`.
  void getTensor(const std::string& name, const std::vector<Index>& shape, Real* out) const;

  /// An upper bound on the values the kTensor sections whose names start
  /// with `prefix` hold: their payload bytes / 8.
  [[nodiscard]] std::uint64_t tensorValuesBound(std::string_view prefix) const;

  /// Section names in file order.
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

 private:
  struct Section {
    SectionKind kind;
    std::size_t offset, size;  ///< the payload's bytes in bytes_
  };
  /// Parse bytes_; `origin` names the image in BadMagicError.
  void parse(const std::string& origin);
  const Section& find(const std::string& name, SectionKind kind) const;
  [[nodiscard]] const std::uint8_t* payload(const Section& s) const {
    return bytes_.data() + s.offset;
  }

  std::vector<std::uint8_t> bytes_;
  std::vector<std::string> names_;
  std::map<std::string, Section> sections_;
};

// ------------------------------------------------- net / optimizer adapters ---

/// Add the net's architecture ("net.cfg.*" scalars) and every parameter
/// tensor ("param.<name>", in the deterministic parameters() registry order)
/// to the writer.
void addNet(CheckpointWriter& w, nqs::QiankunNet& net);

/// Restore every parameter of `net` from the checkpoint.  The stored
/// architecture must match net.config() exactly and every parameter must be
/// present with its exact shape; all validation happens before the first
/// value is copied (no partial-load side effects).
void loadNet(const CheckpointReader& r, nqs::QiankunNet& net);

/// The architecture stored by addNet.  Throws SchemaError naming the first
/// net.cfg.* field whose stored value its type cannot hold or the engine
/// cannot represent (nqs::unrepresentableField).
[[nodiscard]] nqs::QiankunNetConfig readNetConfig(const CheckpointReader& r);

/// Construct a net with the stored architecture and load its parameters.
/// Before anything is built, the architecture is validated as readNetConfig
/// does, and SchemaError is thrown when it holds more parameters than the
/// image's param.* tensors hold values.
/// Returned by pointer: QiankunNet's parameter registry holds addresses into
/// its own submodules, so the object must never be moved once built.
[[nodiscard]] std::unique_ptr<nqs::QiankunNet> makeNet(const CheckpointReader& r);

/// Optimizer state: "opt.step" plus first/second moments ("opt.m.<name>",
/// "opt.v.<name>") per parameter, in the optimizer's parameter order.  The
/// moments are stored whole, whatever slice of the store each rank stepped,
/// so an image written at any rank count loads at any other.  Throws
/// std::invalid_argument for an optimizer that holds the moments of a slice
/// only (AdamW::sliced()): writing them would give a partial image.
void addOptimizer(CheckpointWriter& w, const nn::AdamW& opt);
/// The same sections with the whole store's moments `m` and `v` given by the
/// caller: the slices of every rank, gathered (vmc::runVmc's checkpoint).
/// Throws std::invalid_argument unless both hold opt.storeSize() values.
void addOptimizer(CheckpointWriter& w, const nn::AdamW& opt, std::span<const Real> m,
                  std::span<const Real> v);

/// Restore step count and moments: reads the whole store's moments and keeps
/// the optimizer's slice of them, so the image may come from any rank
/// count.  Validates every tensor against the optimizer's parameter list
/// before mutating anything.
void loadOptimizer(const CheckpointReader& r, nn::AdamW& opt);

}  // namespace nnqs::io
