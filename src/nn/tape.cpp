#include "nn/tape.hpp"

#include <algorithm>
#include <cassert>

namespace nnqs::nn {

namespace {
/// Carve granularity: whole 64-byte cache lines, so every span is aligned for
/// the SIMD kernels and false sharing between spans is impossible.
constexpr std::size_t kAlignReals = 8;

std::size_t alignUp(std::size_t n) {
  return (n + kAlignReals - 1) & ~(kAlignReals - 1);
}
}  // namespace

void Tape::reset() {
  ++generation_;
  stats_.highWater = std::max(stats_.highWater, cycle_);
  // Coalesce: if the last cycle overflowed (or reserve history outgrew the
  // block), re-size the primary block to the high-water mark so the next
  // same-sized cycle is served contiguously with no allocation at all.
  if (!overflow_.empty() || block_.size() < stats_.highWater) {
    overflow_.clear();
    overflowUsed_ = 0;
    block_.assignZero(stats_.highWater);
    ++stats_.grows;
  }
  stats_.capacity = block_.size();
  used_ = 0;
  cycle_ = 0;
}

void Tape::reserve(Index n) {
  assert(used_ == 0 && cycle_ == 0 && overflow_.empty() &&
         "Tape::reserve: only valid directly after reset()");
  const auto need = alignUp(static_cast<std::size_t>(n));
  if (block_.size() < need) {
    block_.assignZero(need);
    ++stats_.grows;
    stats_.capacity = block_.size();
  }
}

Real* Tape::alloc(Index n) {
  assert(n >= 0);
  const std::size_t need = alignUp(static_cast<std::size_t>(n));
  cycle_ += need;
  if (used_ + need <= block_.size()) {
    Real* p = block_.data() + used_;
    used_ += need;
    return p;
  }
  // Mid-cycle growth: live spans pin the primary block, so overflow goes to a
  // fresh side chunk (sized like a capacity doubling), coalesced away by the
  // next reset().  The chunk is a whole number of HugeBuffer pages, which
  // assignZero commits anyway, so later carves of the cycle fill it instead
  // of committing a page each.
  if (overflow_.empty() || overflowUsed_ + need > overflow_.back().size()) {
    constexpr std::size_t kPageReals = kernels::HugeBuffer::kPageBytes / sizeof(Real);
    const std::size_t want = std::max(need, block_.size());
    const std::size_t chunk = (want + kPageReals - 1) / kPageReals * kPageReals;
    overflow_.emplace_back();
    overflow_.back().assignZero(chunk);
    overflowUsed_ = 0;
    ++stats_.overflows;
  }
  Real* p = overflow_.back().data() + overflowUsed_;
  overflowUsed_ += need;
  return p;
}

}  // namespace nnqs::nn
