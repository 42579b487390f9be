#pragma once

// The one structure that finds a sample in a set of samples.  The lookup
// table of the gathered set S (WavefunctionLut), the batched local-energy
// engine's search of every coupled state x' and the term-cost model's
// memory of the last iteration all probe it.
//
// Nothing is sorted: the keys stay in the order they were given, and a
// lookup returns that position.  A hash H that is linear under XOR (H(k) is
// the XOR of fixed pseudo-random words, one per set bit of k) gives
// H(x ^ m) = H(x) ^ H(m), so the engine forms a coupled state's hash with
// one XOR.  A blocked Bloom filter (16 bits per key; each key sets two bits
// of one 64-bit word) retires definite misses with one load, and an
// open-addressing table of key positions (linear probing, at most half
// full) settles the rest.  The filter word, its two bit positions and the
// table slot come from disjoint fields of H.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"

namespace nnqs::vmc {

class SampleIndex {
 public:
  static constexpr std::int32_t kNone = -1;

  SampleIndex() { assign({}); }

  /// Indexes `keys`, kept in the order given.  A key given twice throws
  /// std::invalid_argument and leaves the index empty, as do more than
  /// 2^31 - 1 keys.
  void assign(const std::vector<Bits128>& keys);

  /// Position of `key` in the order the keys were given, or kNone.
  [[nodiscard]] std::int32_t find(Bits128 key) const { return find(key, hash(key)); }
  [[nodiscard]] const std::vector<Bits128>& keys() const { return keys_; }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  // The split probe of the batched engine: hash once, filter, then probe.
  [[nodiscard]] static std::uint64_t hash(Bits128 key);
  /// 0 = no key hashes to `h`, 1 = maybe.
  [[nodiscard]] std::size_t mayContain(std::uint64_t h) const {
    const std::uint64_t w = filter_[h >> wordShift_];
    return (w >> (h & 63)) & (w >> ((h >> 6) & 63)) & 1;
  }
  /// Position of `key`, whose hash is `h`, or kNone.
  [[nodiscard]] std::int32_t find(Bits128 key, std::uint64_t h) const {
    for (std::size_t s = (h >> kSlotShift) & slotMask_;; s = (s + 1) & slotMask_) {
      const std::int32_t pos = slots_[s];
      if (pos == kNone || keys_[static_cast<std::size_t>(pos)] == key) return pos;
    }
  }

 private:
  /// Bits [0, 6) and [6, 12) of H pick the filter bits inside a word, the
  /// slot starts at bit 12 and the filter word is the top field.  Slot and
  /// word fields stay disjoint up to ~2^25 keys; beyond that they overlap,
  /// which costs filter selectivity, never correctness.
  static constexpr unsigned kSlotShift = 12;

  std::vector<Bits128> keys_;
  std::vector<std::uint64_t> filter_;  ///< blocked Bloom filter words
  std::vector<std::int32_t> slots_;    ///< key position or kNone
  unsigned wordShift_ = 0;             ///< h >> wordShift_ = filter word
  std::size_t slotMask_ = 0;
};

}  // namespace nnqs::vmc
