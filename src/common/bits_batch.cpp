// Scalar reference implementations and runtime dispatch of the batched
// Bits128 kernels.  The scalar loops are the contract ground truth; the SIMD
// kernel (bits_batch_simd.hpp, in the ISA tiers of nn/kernels/
// kernel_table.hpp) must match them bit for bit (pure integer arithmetic, so
// equality is structural, not a tolerance).

#include "nn/kernels/kernel_table.hpp"

namespace nnqs::batch {

void parityAndMaskScalar(const Bits128* xs, std::size_t n, Bits128 mask,
                         unsigned char* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

void parityAndMask(const Bits128* xs, std::size_t n, Bits128 mask,
                   unsigned char* out) {
  nn::kernels::detail::hostKernels().parityAndMask(xs, n, mask, out);
}

const char* backendName() { return nn::kernels::detail::hostKernels().name; }

}  // namespace nnqs::batch
