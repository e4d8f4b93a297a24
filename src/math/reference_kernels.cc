#include "math/reference_kernels.h"

#include <cassert>
#include <cmath>

namespace atune {
namespace reference {

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) {
        sum -= l.At(i, k) * l.At(j, k);
      }
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite (Cholesky pivot <= 0)");
        }
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  return l;
}

Status CholeskyAppendRow(Matrix* l, const Vec& row) {
  if (l->rows() != l->cols()) {
    return Status::InvalidArgument(
        "CholeskyAppendRow requires a square factor");
  }
  size_t n = l->rows();
  if (row.size() != n + 1) {
    return Status::InvalidArgument(
        "CholeskyAppendRow: row must have rows()+1 entries");
  }
  Vec l12(n);
  for (size_t j = 0; j < n; ++j) {
    double sum = row[j];
    for (size_t k = 0; k < j; ++k) {
      sum -= l12[k] * l->At(j, k);
    }
    l12[j] = sum / l->At(j, j);
  }
  double diag = row[n];
  for (size_t k = 0; k < n; ++k) {
    diag -= l12[k] * l12[k];
  }
  if (diag <= 0.0) {
    return Status::FailedPrecondition(
        "matrix is not positive definite (Cholesky pivot <= 0)");
  }
  Matrix grown(n + 1, n + 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      grown.At(i, j) = l->At(i, j);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    grown.At(n, j) = l12[j];
  }
  grown.At(n, n) = std::sqrt(diag);
  *l = std::move(grown);
  return Status::OK();
}

Vec ForwardSolve(const Matrix& l, const Vec& b) {
  size_t n = l.rows();
  assert(b.size() == n);
  Vec y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) {
      sum -= l.At(i, k) * y[k];
    }
    y[i] = sum / l.At(i, i);
  }
  return y;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = a.At(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += aik * b.At(k, j);
      }
    }
  }
  return out;
}

}  // namespace reference
}  // namespace atune
