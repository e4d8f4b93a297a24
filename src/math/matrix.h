#ifndef ATUNE_MATH_MATRIX_H_
#define ATUNE_MATH_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

#if defined(__x86_64__)
// The AVX and FMA instances compile per function through target attributes
// and are picked at runtime with __builtin_cpu_supports, so the default
// build needs no extra flags and still runs on plain SSE2 machines.
#define ATUNE_HAVE_AVX_DISPATCH 1
#include <immintrin.h>
#endif

namespace atune {

/// Numeric vector type used across math/ML code.
using Vec = std::vector<double>;

/// Dense row-major matrix with the linear-algebra kernel the tuners need:
/// products, transpose, Cholesky (full and bordered-append), forward/backward
/// solves, and (ridge-regularized) least squares.
///
/// The hot kernels (Cholesky, ForwardSolve, Multiply, CholeskyAppendRow and
/// the sixteen-lane panel solve behind GaussianProcess::ArgmaxAcquisition)
/// are written as blocked loops over contiguous row spans: observation
/// stores now reach hundreds of rows and the GP hot path runs them once per
/// candidate batch, so they are tuned for instruction-level parallelism and
/// vectorization. The SIMD kernels are written once each over GCC vector
/// types (internal::V2 below; GCC's auto-vectorizer shuffles the same scalar
/// loops into slower code) and instantiated twice: two lanes for the
/// default target, four inside target("avx") entries (target("avx2,fma")
/// for the GP's distance pass and kernel tail) picked at runtime via
/// __builtin_cpu_supports, so the default build carries no extra ISA
/// requirement (DESIGN.md §11).
/// Kernel contracts:
///
///   * Layout: row-major, contiguous — element (r, c) lives at
///     data()[r * cols() + c]; RowPtr(r) spans cols() doubles.
///   * Bit-identity: every fast path performs exactly the same
///     floating-point operations on each output element, in the same order,
///     as the naive loops preserved in math/reference_kernels.h. Blocking
///     only interleaves *independent* elements' dependency chains; nothing
///     is reassociated, and divisions stay divisions, or become
///     internal::ExactQuotient, which rounds the same. Tuners compare
///     objectives and acquisition values with exact `<`/`>`, so this is a
///     correctness contract, not a nicety — enforced by
///     tests/math/blocked_kernels_test.cc and bench_hotpath's whole-session
///     A/B (see SetScalarKernelsForTesting below).
///   * BackwardSolveTranspose stays naive by design: its column-strided
///     dependency chain cannot be blocked without reordering subtractions
///     (breaking bit-identity), and it runs once per GP refit, not per
///     candidate.
///   * Aliasing: the *Into span variants allow out == in (in-place solve)
///     but no partial overlap; spans must not alias the factor `l`.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Returns row r as a Vec.
  Vec Row(size_t r) const;

  /// Borrowed contiguous span of row r (cols() doubles) — the hot paths use
  /// these instead of the copying Row() accessor.
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }

  Matrix Transpose() const;

  /// Matrix product; dimensions must agree (asserted).
  Matrix Multiply(const Matrix& other) const;
  /// Matrix-vector product; v.size() must equal cols().
  Vec MultiplyVec(const Vec& v) const;

  /// Adds s to every diagonal entry (in place); used for jitter/ridge terms.
  void AddDiagonal(double s);

  /// Cholesky factorization A = L L^T for symmetric positive-definite A.
  /// Returns the lower-triangular factor, or an error if not SPD.
  Result<Matrix> Cholesky() const;

  /// Treating *this as the lower Cholesky factor L of an n x n SPD matrix
  /// A, grows it in place to the factor of A bordered by one symmetric
  /// row/column: `row` holds the n cross terms followed by the new diagonal
  /// entry (n+1 values). Performs exactly the arithmetic of the last row of
  /// a full factorization, so the result is bit-identical to refactorizing
  /// from scratch — in O(n²) instead of O(n³). This is what makes
  /// GaussianProcess::AddObservation incremental. Fails (leaving *this
  /// unchanged) if the bordered matrix is not positive definite.
  Status CholeskyAppendRow(const Vec& row);

  /// Solves L y = b with L lower triangular.
  static Vec ForwardSolve(const Matrix& l, const Vec& b);
  /// Allocation-free ForwardSolve into caller storage: `b` and `y` are
  /// spans of l.rows() doubles; y == b solves in place (full aliasing only).
  static void ForwardSolveInto(const Matrix& l, const double* b, double* y);
  /// Solves L^T x = y with L lower triangular (i.e. backward pass).
  static Vec BackwardSolveTranspose(const Matrix& l, const Vec& y);
  /// Allocation-free BackwardSolveTranspose; same span contract as
  /// ForwardSolveInto.
  static void BackwardSolveTransposeInto(const Matrix& l, const double* y,
                                         double* x);

  /// Solves A x = b for SPD A via Cholesky.
  Result<Vec> SolveSpd(const Vec& b) const;

  /// Log-determinant of an SPD matrix via its Cholesky factor.
  static double LogDetFromCholesky(const Matrix& l);

  /// Solves the ridge-regularized least squares problem
  ///   min_x ||A x - b||^2 + lambda ||x||^2
  /// via the normal equations (A^T A + lambda I) x = A^T b.
  /// lambda = 0 gives plain least squares (may fail if rank-deficient).
  static Result<Vec> LeastSquares(const Matrix& a, const Vec& b,
                                  double lambda = 0.0);

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Row addressing of an n x n lower triangle held in a caller's buffer:
/// row i starts at offset rows(i), and its entries 0..i are contiguous.
/// Dense rows have a fixed stride (a Matrix's row-major layout).
struct DenseRows {
  size_t stride;
  size_t operator()(size_t i) const { return i * stride; }
};
/// Packed rows keep only the lower triangle: row i's i + 1 entries start at
/// i(i+1)/2, so the whole triangle takes PackedSize(n) doubles, about half
/// of a dense n x n buffer.
struct PackedRows {
  size_t operator()(size_t i) const { return i * (i + 1) / 2; }
};
inline size_t PackedSize(size_t n) { return PackedRows()(n); }

/// In-place Cholesky for a caller-owned buffer: `a` holds the lower
/// triangle (diagonal included) of an n x n SPD matrix A, addressed by
/// `rows` (DenseRows or PackedRows), and that triangle is overwritten with
/// the factor L of A = L Lᵀ. It runs Matrix::Cholesky()'s kernel
/// (PanelCholesky8, at every n) on the same arithmetic, so every entry of L
/// is bit-identical to Cholesky()'s. The strict upper triangle of a dense
/// buffer is never written: one that starts zeroed ends byte-equal to
/// Cholesky()'s factor. `panel` is caller storage of at least 8 * n doubles
/// for the panel kernel, so the call allocates nothing and may run on a
/// pool worker. Returns false, with a partial factor in the triangle, when
/// A is not positive definite. Fast kernels only: SetScalarKernelsForTesting
/// does not reroute it, so the scalar half of an A/B keeps calling
/// Cholesky().
template <typename Rows>
bool CholeskyInPlace(double* a, size_t n, Rows rows, double* panel);

/// Solves over a packed factor (PackedRows layout, n x n), allocation-free
/// and bit-identical to Matrix::ForwardSolveInto, BackwardSolveTransposeInto
/// and LogDetFromCholesky on the same factor held densely; y == b solves
/// in place. GaussianProcess scores its hyper-search probes with them.
namespace packed {
void ForwardSolveInto(const double* l, size_t n, const double* b, double* y);
void BackwardSolveTransposeInto(const double* l, size_t n, const double* y,
                                double* x);
double LogDetFromCholesky(const double* l, size_t n);
}  // namespace packed

namespace internal {
/// Columns of the panel ForwardSolvePanel solves.
inline constexpr size_t kPanelLanes = 16;
/// Solves L Y = Y in place on a row-major panel of l.rows() rows ×
/// kPanelLanes columns with row stride `panel_stride`; each lane performs
/// bit-identically the operations of Matrix::ForwardSolve on that column,
/// so the lanes share the factor's memory traffic. The solve behind
/// GaussianProcess::ArgmaxAcquisition.
void ForwardSolvePanel(const Matrix& l, double* panel, size_t panel_stride);

/// Two doubles as a GCC vector type. Its +, -, * and / are per-lane IEEE
/// operations on every target, as the scalar ones are, so a loop over V2
/// lanes keeps each element's operations and their order, and with them
/// its bits. The SIMD kernels here and in GaussianProcess are written over
/// such types (DESIGN.md §11).
typedef double V2 __attribute__((vector_size(16)));
/// Four lanes, the AVX instance. GCC passes a 32-byte vector in a register
/// only where AVX is enabled, so V4 appears only inside the always-inline
/// bodies that a target("avx") or target("avx2,fma") entry reaches.
typedef double V4 __attribute__((vector_size(32)));

/// Unaligned copies between doubles and one lane vector. They go through
/// memory and by pointer or reference, never by value, so the 32-byte
/// instances in matrix.cc compile inside target("avx") bodies without an
/// ABI change (-Wpsabi).
template <typename V>
__attribute__((always_inline)) inline void Load(V* v, const double* p) {
  std::memcpy(v, p, sizeof(V));
}
template <typename V>
__attribute__((always_inline)) inline void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}
#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// *q = a / b in every lane, bit for bit, from y = RN(1 / b), which the
/// caller computes once per divisor with a real divide:
///   q0 = a y,  r0 = fma(-b, q0, a),  q1 = fma(r0, y, q0),
///   r1 = fma(-b, q1, a),  q = fma(r1, y, q1).
/// q1 is within one ulp of a / b, so by Markstein's theorem q is the
/// correctly rounded quotient, provided nothing underflows or overflows;
/// ExactQuotientOperands and ExactQuotientDivisors guard that. A zero a
/// may give a zero of the other sign, which no square tells apart. Only
/// for entries with target("avx2,fma") and optimize("fp-contract=off"),
/// where it inlines (DESIGN.md §11).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline void
ExactQuotient(V4* q, const V4& a, double b, double y) {
  const __m256d vb = _mm256_set1_pd(b);
  const __m256d vy = _mm256_set1_pd(y);
  const __m256d q0 = _mm256_mul_pd(a, vy);
  const __m256d r0 = _mm256_fnmadd_pd(vb, q0, a);
  const __m256d q1 = _mm256_fmadd_pd(r0, vy, q0);
  const __m256d r1 = _mm256_fnmadd_pd(vb, q1, a);
  *q = _mm256_fmadd_pd(r1, vy, q1);
}

/// glibc's exp table (__exp_data.tab): for k < 128, with
/// H_k = RN(2^(k/128)), kExpTable[2k] holds the bits of the relative tail
/// RN(2^(k/128) / H_k - 1) and kExpTable[2k + 1] the bits of H_k minus
/// k << 45. Adding n << 45 for an index n = k (mod 128) to the latter
/// gives the bits of H_k * 2^floor(n / 128). Generated in quad precision,
/// with one Newton correction of 2^(k/128) for the tails; 2 KB of static
/// data.
extern const uint64_t kExpTable[256];

/// *y = exp(x) in every lane, as glibc 2.36's exp computes it on a host
/// with FMA (its table-driven algorithm from ARM's optimized-routines,
/// every multiply-add fused as the FMA build of that code fuses it):
///   kd = fma(128 / ln 2, x, 0x1.8p52),  ki = bits(kd),  kd -= 0x1.8p52
///   r = fma(kd, -ln2lo / 128, fma(kd, -ln2hi / 128, x))
///   tail = kExpTable[2 (ki & 127)],  scale = kExpTable[2 (ki & 127) + 1]
///          + (ki << 45) as bits,  r2 = r * r
///   tmp = fma(r2 * r2, fma(r, C5, C4), fma(r2, fma(r, C3, C2), tail + r))
///   exp(x) = fma(scale, tmp, scale)
/// for 2^-54 <= |x| < 512, where glibc takes the same path; every other
/// lane (zeros, tiny, far, infinite and NaN arguments) is std::exp's. So
/// it equals std::exp bit for bit where the host's libm runs that code,
/// which ExpV4Available() checks once per process. Only for entries with
/// target("avx2,fma") and optimize("fp-contract=off"), where it inlines
/// (DESIGN.md §11).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline void
ExpV4(V4* y, const V4& x) {
  const __m256d shift = _mm256_set1_pd(0x1.8p52);
  __m256d kd = _mm256_fmadd_pd(_mm256_set1_pd(0x1.71547652b82fep7), x, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(-0x1.62e42fefa0000p-8), x);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(-0x1.cf79abc9e3b3ap-47), r);
  const __m256i i =
      _mm256_slli_epi64(_mm256_and_si256(ki, _mm256_set1_epi64x(127)), 1);
  const __m256d tail = _mm256_i64gather_pd(
      reinterpret_cast<const double*>(kExpTable), i, 8);
  const __m256i hbits = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExpTable + 1), i, 8);
  const __m256d scale =
      _mm256_castsi256_pd(_mm256_add_epi64(hbits, _mm256_slli_epi64(ki, 45)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(0x1.1111167a4d017p-7),
                                      _mm256_set1_pd(0x1.55555cf172b91p-5));
  const __m256d p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(0x1.555555555543cp-3),
                                      _mm256_set1_pd(0x1.ffffffffffdbdp-2));
  const __m256d tmp =
      _mm256_fmadd_pd(_mm256_mul_pd(r2, r2), p45,
                      _mm256_fmadd_pd(r2, p23, _mm256_add_pd(tail, r)));
  *y = _mm256_fmadd_pd(scale, tmp, scale);
  // The fast range, compared ordered so that NaN lanes leave it.
  const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  const int fast = _mm256_movemask_pd(_mm256_and_pd(
      _mm256_cmp_pd(ax, _mm256_set1_pd(0x1p-54), _CMP_GE_OQ),
      _mm256_cmp_pd(ax, _mm256_set1_pd(512.0), _CMP_LT_OQ)));
  if (fast != 0xf) {
    double lanes[4];
    double out[4];
    Store(lanes, x);
    Store(out, *y);
    for (int l = 0; l < 4; ++l) {
      if (!(fast >> l & 1)) out[l] = std::exp(lanes[l]);
    }
    Load(y, out);
  }
}
#endif

/// True when the host runs AVX2 and FMA and SetSse2KernelsForTesting is
/// off: the exact-quotient distance body may then run, on guarded inputs.
bool FmaAvailable();

/// The one-time self-check behind ExpV4Available(): true when the host runs
/// AVX2 and FMA and ExpV4 gives `reference`'s bits on all 152 probe
/// arguments (one per table index, arguments where C2 one ulp off or the
/// unfused form shows, and the fast range's edges).
/// Production passes std::exp; a test passes a wrong exp to see it refused.
bool ExpV4MatchesReference(double (*reference)(double));

/// True when FmaAvailable() and ExpV4 matched std::exp in
/// ExpV4MatchesReference, which runs once per process: the GP kernel tail
/// may then take ExpV4. Elsewhere the tail keeps libm's exp, so no host's
/// bits depend on this.
bool ExpV4Available();

/// The exact quotient's guard on the operands whose differences it
/// divides: true when every v[i] is 0, or finite with 2^-800 <= |v[i]| <=
/// 2^500. A difference of two such values is 0 or lies in [2^-852, 2^501].
bool ExactQuotientOperands(const double* v, size_t count);

/// The guard on the divisors: true when every ls[i] lies in [2^-40, 2^40].
/// With the operand guard, every quotient lies in [2^-892, 2^541] and
/// every residual is 0 or at least 2^-957, far from both subnormals and
/// overflow.
bool ExactQuotientDivisors(const double* ls, size_t count);

/// Squared scaled distances: out[r * m + i] is the sum over j < d,
/// ascending from 0.0, of q * q with q = (x_r[j] - p_i[j]) / ls[j], for the
/// rows x_r, r < rows, of the row-major `xs` (stride d) and the points p_i,
/// i < m, of the column-major `pts` (p_i[j] = pts[j * stride + i]).
/// `inv_ls` holds RN(1 / ls[j]). With `exact` the quotients come from
/// ExactQuotient four lanes abreast, which the caller may ask for only when
/// FmaAvailable() and both guards hold for every x_r, p_i and ls[j];
/// otherwise they are divides, two lanes abreast. The bits are the same.
void SquaredDistances(const double* xs, size_t rows, const double* pts,
                      size_t stride, size_t m, size_t d, const double* ls,
                      const double* inv_ls, bool exact, double* out);
}  // namespace internal

/// Unrolls a loop over lanes, vectors or block rows completely, so a
/// kernel's vector arrays stay in registers: GCC leaves some of these
/// constant-count loops rolled, and the bodies then run about 2× slower.
#define ATUNE_UNROLL _Pragma("GCC unroll 16")

/// Routes the Matrix hot kernels (and GaussianProcess's kernel rows and
/// ArgmaxAcquisition) through the naive scalar implementations in
/// math/reference_kernels.h instead of the blocked fast paths.
/// Testing/benchmarking only: bench_hotpath runs whole tuning sessions
/// under both settings and requires byte-identical outcomes, traces, and
/// journals. Process-wide; do not toggle while a computation is in flight.
void SetScalarKernelsForTesting(bool scalar);
bool ScalarKernelsForTesting();

/// Routes the AVX-dispatched kernels (PanelCholesky8, the sixteen-lane
/// panel solve, the exact-quotient distance pass and the ExpV4 kernel tail)
/// to their two-lane instances (the divide body, libm's exp), so hosts with
/// AVX run those too; results are bit-identical either way. Testing only,
/// process-wide; a no-op on builds without the AVX dispatch.
void SetSse2KernelsForTesting(bool sse2);

/// Dot product; sizes must match (asserted).
double Dot(const Vec& a, const Vec& b);
/// Dot product over spans, same order of operations as Dot.
double DotSpan(const double* a, const double* b, size_t n);
/// Euclidean norm.
double Norm2(const Vec& v);
/// Squared Euclidean distance.
double SquaredDistance(const Vec& a, const Vec& b);

}  // namespace atune

#endif  // ATUNE_MATH_MATRIX_H_
