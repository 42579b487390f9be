#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/types.hpp"

namespace nnqs::linalg {

/// Dense row-major matrix of doubles.  Deliberately small API: the chemistry
/// stack only needs gemm, transforms and symmetric eigensolves.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols, Real fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), fill) {}

  static Matrix identity(Index n) {
    Matrix m(n, n);
    for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  Real& operator()(Index i, Index j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  Real operator()(Index i, Index j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator*=(Real s);

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Real maxAbs() const;
  void setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

 private:
  Index rows_ = 0, cols_ = 0;
  std::vector<Real> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);

/// C = A * B (OpenMP-parallel over rows of A).
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix matmulTN(const Matrix& a, const Matrix& b);
/// y = A * x.
std::vector<Real> matvec(const Matrix& a, const std::vector<Real>& x);
/// tr(A * B) for same-shaped matrices (element-wise with B^T implied).
Real traceProduct(const Matrix& a, const Matrix& b);

/// Solve the square linear system A x = b by partial-pivot LU (small systems:
/// DIIS extrapolation, STO fitting).
std::vector<Real> solveLinear(Matrix a, std::vector<Real> b);

Real dot(const std::vector<Real>& a, const std::vector<Real>& b);
Real norm2(const std::vector<Real>& a);
void axpy(Real alpha, const std::vector<Real>& x, std::vector<Real>& y);

}  // namespace nnqs::linalg
