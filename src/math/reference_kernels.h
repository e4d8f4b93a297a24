#ifndef ATUNE_MATH_REFERENCE_KERNELS_H_
#define ATUNE_MATH_REFERENCE_KERNELS_H_

#include "math/matrix.h"

namespace atune {
namespace reference {

/// Naive scalar implementations of the Matrix hot kernels (DESIGN.md §11).
///
/// These are the pre-speed-layer loops, kept verbatim as the semantic
/// definition of each kernel: the blocked fast paths in matrix.cc must
/// produce *bit-identical* results (same floating-point operations on each
/// output element, in the same order), which tests/math/blocked_kernels_test
/// and bench_hotpath enforce against these references. They also serve the
/// in-process A/B switch (SetScalarKernelsForTesting in matrix.h) that runs
/// whole tuning sessions on the scalar paths to prove outcome bit-identity.
///
/// Everything here uses only the public Matrix API and allocates freely —
/// clarity is the point; speed is matrix.cc's job.

/// A = L Lᵀ factorization; errors mirror Matrix::Cholesky.
Result<Matrix> Cholesky(const Matrix& a);

/// Grows the factor `l` by one bordered row/column; errors and in-place
/// semantics mirror Matrix::CholeskyAppendRow.
Status CholeskyAppendRow(Matrix* l, const Vec& row);

/// Solves L y = b, L lower triangular.
Vec ForwardSolve(const Matrix& l, const Vec& b);

/// Row-by-column matrix product with the zero-skip of Matrix::Multiply.
Matrix Multiply(const Matrix& a, const Matrix& b);

}  // namespace reference
}  // namespace atune

#endif  // ATUNE_MATH_REFERENCE_KERNELS_H_
