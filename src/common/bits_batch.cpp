// Scalar reference implementations and runtime dispatch of the batched
// Bits128 kernels.  The scalar loops are the contract ground truth; the SIMD
// backends (bits_batch_avx2.cpp / bits_batch_avx512.cpp) must match them bit
// for bit (pure integer arithmetic, so equality is structural, not a
// tolerance).

#include "common/bits_batch_impl.hpp"

namespace nnqs::batch {

void parityAndMaskScalar(const Bits128* xs, std::size_t n, Bits128 mask,
                         unsigned char* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

namespace {

detail::Backend resolveBackend() {
  if (const auto b = detail::avx512Backend(); b.parityAndMask != nullptr)
    return b;
  if (const auto b = detail::avx2Backend(); b.parityAndMask != nullptr) return b;
  return {&parityAndMaskScalar, "scalar"};
}

const detail::Backend& backend() {
  static const detail::Backend b = resolveBackend();
  return b;
}

}  // namespace

void parityAndMask(const Bits128* xs, std::size_t n, Bits128 mask,
                   unsigned char* out) {
  backend().parityAndMask(xs, n, mask, out);
}

const char* backendName() { return backend().name; }

}  // namespace nnqs::batch
