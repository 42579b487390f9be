#include "vmc/sample_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

namespace nnqs::vmc {

namespace {

/// The XOR-linear hash H, tabulated by byte: table b holds, for every byte
/// value v, the XOR of the pseudo-random words of the set bits of v at bit
/// offset 8b (so entry 0 of every table is 0).  Tables 8..15 cover the high
/// word of keys wider than 64 qubits.
class XorHash {
 public:
  constexpr XorHash() {
    std::uint64_t state = 0x243F6A8885A308D3ull;
    for (auto& table : t_) {
      std::array<std::uint64_t, 8> bitWord{};
      for (auto& w : bitWord) w = splitmix64(state);
      for (unsigned v = 1; v < 256; ++v)
        table[v] = table[v & (v - 1)] ^ bitWord[std::countr_zero(v)];
    }
  }

  [[nodiscard]] std::uint64_t operator()(Bits128 k) const {
    std::uint64_t h = 0;
    for (unsigned b = 0; b < 8; ++b) h ^= t_[b][(k.lo >> (8 * b)) & 0xFF];
    if (k.hi != 0)
      for (unsigned b = 0; b < 8; ++b) h ^= t_[8 + b][(k.hi >> (8 * b)) & 0xFF];
    return h;
  }

 private:
  static constexpr std::uint64_t splitmix64(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::array<std::array<std::uint64_t, 256>, 16> t_{};
};

constexpr XorHash kHash;

}  // namespace

std::uint64_t SampleIndex::hash(Bits128 key) { return kHash(key); }

void SampleIndex::assign(const std::vector<Bits128>& keys) {
  if (keys.size() > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("SampleIndex: more than 2^31 - 1 keys");
  keys_.assign(keys.begin(), keys.end());
  unsigned logBits = 10;
  while ((std::size_t{1} << logBits) < 16 * keys_.size()) ++logBits;
  wordShift_ = 64 - (logBits - 6);
  slotMask_ = std::bit_ceil(std::max<std::size_t>(2 * keys_.size(), 2)) - 1;
  filter_.assign(std::size_t{1} << (logBits - 6), 0);
  slots_.assign(slotMask_ + 1, kNone);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const std::uint64_t h = hash(keys_[i]);
    filter_[h >> wordShift_] |=
        (std::uint64_t{1} << (h & 63)) | (std::uint64_t{1} << ((h >> 6) & 63));
    std::size_t s = (h >> kSlotShift) & slotMask_;
    for (; slots_[s] != kNone; s = (s + 1) & slotMask_)
      if (keys_[static_cast<std::size_t>(slots_[s])] == keys_[i]) {
        // A set holds each sample once: a second copy would count its
        // terms twice toward <E>.
        assign({});
        throw std::invalid_argument("SampleIndex: duplicate key (a sample set must be unique)");
      }
    slots_[s] = static_cast<std::int32_t>(i);
  }
}

}  // namespace nnqs::vmc
