#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels/gemm.hpp"

namespace nnqs::linalg {

Matrix& Matrix::operator+=(const Matrix& o) {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(Real s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (Index i = 0; i < rows_; ++i)
    for (Index j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Real Matrix::maxAbs() const {
  Real m = 0;
  for (Real v : data_) m = std::max(m, std::abs(v));
  return m;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  for (Index i = 0; i < a.rows() * a.cols(); ++i) a.data()[i] -= b.data()[i];
  return a;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // Register-blocked GEMM backend (src/nn/kernels/gemm.hpp), bit-identical
  // to the naive ascending-l row loop it replaced; kAuto threads past the
  // same work threshold as the historical OpenMP if-clause.
  nn::kernels::GemmArgs g;
  g.m = a.rows();
  g.n = b.cols();
  g.k = a.cols();
  g.a = a.data();
  g.lda = a.cols();
  g.b = b.data();
  g.ldb = b.cols();
  g.c = c.data();
  g.ldc = b.cols();
  g.cZeroed = true;  // the Matrix constructor just value-initialized C
  nn::kernels::gemm(g);
  return c;
}

Matrix matmulTN(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  nn::kernels::GemmArgs g;
  g.m = a.cols();
  g.n = b.cols();
  g.k = a.rows();
  g.a = a.data();
  g.lda = a.cols();
  g.transA = true;  // A[i,l] = a(l, i)
  g.b = b.data();
  g.ldb = b.cols();
  g.c = c.data();
  g.ldc = b.cols();
  g.cZeroed = true;  // the Matrix constructor just value-initialized C
  nn::kernels::gemm(g);
  return c;
}

std::vector<Real> matvec(const Matrix& a, const std::vector<Real>& x) {
  assert(static_cast<std::size_t>(a.cols()) == x.size());
  std::vector<Real> y(static_cast<std::size_t>(a.rows()), 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    Real s = 0;
    for (Index j = 0; j < a.cols(); ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = s;
  }
  return y;
}

Real traceProduct(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Real s = 0;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) s += a(i, j) * b(i, j);
  return s;
}

std::vector<Real> solveLinear(Matrix a, std::vector<Real> b) {
  const Index n = a.rows();
  if (a.cols() != n || static_cast<Index>(b.size()) != n)
    throw std::invalid_argument("solveLinear: shape mismatch");
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (Index col = 0; col < n; ++col) {
    // Partial pivot.
    Index piv = col;
    for (Index r = col + 1; r < n; ++r)
      if (std::abs(a(r, col)) > std::abs(a(piv, col))) piv = r;
    if (std::abs(a(piv, col)) < 1e-14)
      throw std::runtime_error("solveLinear: singular matrix");
    if (piv != col) {
      for (Index j = 0; j < n; ++j) std::swap(a(col, j), a(piv, j));
      std::swap(b[static_cast<std::size_t>(col)], b[static_cast<std::size_t>(piv)]);
    }
    const Real d = a(col, col);
    for (Index r = col + 1; r < n; ++r) {
      const Real f = a(r, col) / d;
      if (f == 0.0) continue;
      for (Index j = col; j < n; ++j) a(r, j) -= f * a(col, j);
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(col)];
    }
  }
  std::vector<Real> x(static_cast<std::size_t>(n));
  for (Index i = n - 1; i >= 0; --i) {
    Real s = b[static_cast<std::size_t>(i)];
    for (Index j = i + 1; j < n; ++j) s -= a(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / a(i, i);
  }
  return x;
}

Real dot(const std::vector<Real>& a, const std::vector<Real>& b) {
  assert(a.size() == b.size());
  Real s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Real norm2(const std::vector<Real>& a) { return std::sqrt(dot(a, a)); }

void axpy(Real alpha, const std::vector<Real>& x, std::vector<Real>& y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace nnqs::linalg
