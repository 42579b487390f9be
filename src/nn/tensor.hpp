#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace nnqs::nn {

/// std::allocator, except that *value-initialization requested with no
/// arguments* becomes default-initialization: `resize(n)` on a vector of
/// Reals leaves the new elements uninitialized instead of writing zeros.
/// This is the storage of Tensor's uninitialized-construction path — every
/// GEMM / kernel destination is fully overwritten by its producer, and the
/// constructor zero-fill was measurable per-step churn on the decode path
/// (kernels::gemm re-initializes C right after it).  Explicit fills
/// (`assign(n, 0.0)`, copies) are unaffected.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

using RealBuffer = std::vector<Real, DefaultInitAllocator<Real>>;

/// Minimal dense tensor: row-major data + shape.  The NN engine uses explicit
/// per-module backprop on a caller-owned Tape (nn/tape.hpp), so no autograd
/// graph machinery is required.
struct Tensor {
  std::vector<Index> shape;
  RealBuffer data;

  Tensor() = default;
  explicit Tensor(std::vector<Index> s) : shape(std::move(s)) {
    data.assign(static_cast<std::size_t>(numel(shape)), 0.0);
  }

  /// Uninitialized construction: the buffer is sized but *not* zero-filled.
  /// Only for destinations whose producer overwrites every element (GEMM C
  /// with its own init modes, the elementwise kernels' outputs); reading an
  /// element before writing it is indeterminate.
  static Tensor uninit(std::vector<Index> s) {
    Tensor t;
    t.shape = std::move(s);
    t.data.resize(static_cast<std::size_t>(numel(t.shape)));  // default-init
    return t;
  }

  /// Element count of a shape; an empty shape has no elements (a scalar is
  /// shape {1}).  Debug builds assert on Index overflow of the product.
  static Index numel(const std::vector<Index>& s) {
    if (s.empty()) return 0;
    Index n = 1;
    for (Index d : s) {
      assert(d >= 0 && "Tensor::numel: negative dimension");
#ifndef NDEBUG
      Index prod = 0;
      assert(!__builtin_mul_overflow(n, d, &prod) && "Tensor::numel: Index overflow");
      n = prod;
#else
      n *= d;
#endif
    }
    return n;
  }
  [[nodiscard]] Index numel() const { return static_cast<Index>(data.size()); }
  [[nodiscard]] bool empty() const { return data.empty(); }

  Real& operator[](std::size_t i) { return data[i]; }
  Real operator[](std::size_t i) const { return data[i]; }

  void setZero() { std::fill(data.begin(), data.end(), 0.0); }

  /// Exact bitwise equality: same shape and every f64 *bit pattern* equal.
  /// The checkpoint round-trip contract (io/checkpoint.hpp) is stated in
  /// these terms rather than value comparison: NaN payloads compare equal to
  /// themselves and -0.0 differs from +0.0, exactly as the serialized bytes do.
  [[nodiscard]] bool bitIdentical(const Tensor& other) const {
    return shape == other.shape && data.size() == other.data.size() &&
           (data.empty() ||
            std::memcmp(data.data(), other.data.data(),
                        data.size() * sizeof(Real)) == 0);
  }

  /// Gaussian init with the given std-dev.
  void randn(Rng& rng, Real stddev) {
    for (auto& v : data) v = stddev * rng.normal();
  }
};

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Parameter(std::vector<Index> shape, std::string n = {})
      : value(shape), grad(std::move(shape)), name(std::move(n)) {}
  [[nodiscard]] Index numel() const { return value.numel(); }
};

}  // namespace nnqs::nn
