#include "math/matrix.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define ATUNE_HAVE_SSE2 1
#if defined(__GNUC__) && defined(__x86_64__)
// AVX bodies are compiled per-function via target attributes and picked at
// runtime with __builtin_cpu_supports, so the default build needs no extra
// flags and still runs on plain SSE2 machines.
#include <immintrin.h>
#define ATUNE_HAVE_AVX_DISPATCH 1
#endif
#endif

#include "math/reference_kernels.h"

namespace atune {

namespace {

std::atomic<bool> g_scalar_kernels{false};
std::atomic<bool> g_sse2_kernels{false};

/// Factors from this size on go through PanelCholesky8; below it the
/// panel's transpose-buffer setup costs more than its lanes save.
constexpr size_t kPanelCholeskyFrom = 16;

/// Blocked forward substitution y = L⁻¹ b over contiguous spans: rows are
/// processed in blocks of four so their independent subtraction chains
/// interleave (ILP), but each element still receives its subtractions in
/// ascending-k order — bit-identical to the naive loop in
/// reference_kernels.cc. `rows` addresses L's rows (DenseRows or
/// PackedRows); y == b is allowed.
template <typename Rows>
void BlockedForwardSubstitute(const double* ld, size_t n, Rows rows,
                              const double* b, double* y) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = ld + rows(i + 0);
    const double* r1 = ld + rows(i + 1);
    const double* r2 = ld + rows(i + 2);
    const double* r3 = ld + rows(i + 3);
    double acc0 = b[i + 0];
    double acc1 = b[i + 1];
    double acc2 = b[i + 2];
    double acc3 = b[i + 3];
    for (size_t k = 0; k < i; ++k) {
      double yk = y[k];
      acc0 -= r0[k] * yk;
      acc1 -= r1[k] * yk;
      acc2 -= r2[k] * yk;
      acc3 -= r3[k] * yk;
    }
    // In-block tail: later rows depend on earlier ones, still ascending k.
    double y0 = acc0 / r0[i + 0];
    y[i + 0] = y0;
    acc1 -= r1[i + 0] * y0;
    double y1 = acc1 / r1[i + 1];
    y[i + 1] = y1;
    acc2 -= r2[i + 0] * y0;
    acc2 -= r2[i + 1] * y1;
    double y2 = acc2 / r2[i + 2];
    y[i + 2] = y2;
    acc3 -= r3[i + 0] * y0;
    acc3 -= r3[i + 1] * y1;
    acc3 -= r3[i + 2] * y2;
    y[i + 3] = acc3 / r3[i + 3];
  }
  for (; i < n; ++i) {
    const double* ri = ld + rows(i);
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= ri[k] * y[k];
    y[i] = sum / ri[i];
  }
}

/// Portable in-place panel forward solve L Y = Y for builds without SSE2,
/// with a compile-time lane count so the accumulators live in registers.
/// Lane c performs exactly ForwardSolve's operations on column c.
template <size_t kLanes>
void SolvePanelFixed(const double* ld, size_t n, size_t stride, double* panel,
                     size_t pstride) {
  for (size_t i = 0; i < n; ++i) {
    const double* li = ld + i * stride;
    double* pi = panel + i * pstride;
    double acc[kLanes];
    for (size_t c = 0; c < kLanes; ++c) acc[c] = pi[c];
    for (size_t k = 0; k < i; ++k) {
      double lik = li[k];
      const double* pk = panel + k * pstride;
      for (size_t c = 0; c < kLanes; ++c) acc[c] -= lik * pk[c];
    }
    double lii = li[i];
    for (size_t c = 0; c < kLanes; ++c) pi[c] = acc[c] / lii;
  }
}

#if defined(ATUNE_HAVE_SSE2)
/// Sixteen-lane in-place panel forward solve with explicit SSE2 two-lane
/// ops. Its eight accumulators leave no registers for a second row, so rows
/// go one at a time, each streamed factor row li[] serving all sixteen
/// lanes. Lane c performs exactly ForwardSolve's operations on column c in
/// the same ascending-k order, so results are bit-identical. Hand-written
/// because GCC's auto-vectorizer turns the array-accumulator form into
/// shuffle-heavy code slower than scalar.
void SolvePanel16Sse2(const double* ld, size_t n, size_t stride,
                      double* panel, size_t pstride) {
  for (size_t i = 0; i < n; ++i) {
    const double* li = ld + i * stride;
    double* pi = panel + i * pstride;
    __m128d a0 = _mm_loadu_pd(pi + 0), a1 = _mm_loadu_pd(pi + 2);
    __m128d a2 = _mm_loadu_pd(pi + 4), a3 = _mm_loadu_pd(pi + 6);
    __m128d a4 = _mm_loadu_pd(pi + 8), a5 = _mm_loadu_pd(pi + 10);
    __m128d a6 = _mm_loadu_pd(pi + 12), a7 = _mm_loadu_pd(pi + 14);
    for (size_t k = 0; k < i; ++k) {
      const __m128d lik = _mm_set1_pd(li[k]);
      const double* pk = panel + k * pstride;
      a0 = _mm_sub_pd(a0, _mm_mul_pd(lik, _mm_loadu_pd(pk + 0)));
      a1 = _mm_sub_pd(a1, _mm_mul_pd(lik, _mm_loadu_pd(pk + 2)));
      a2 = _mm_sub_pd(a2, _mm_mul_pd(lik, _mm_loadu_pd(pk + 4)));
      a3 = _mm_sub_pd(a3, _mm_mul_pd(lik, _mm_loadu_pd(pk + 6)));
      a4 = _mm_sub_pd(a4, _mm_mul_pd(lik, _mm_loadu_pd(pk + 8)));
      a5 = _mm_sub_pd(a5, _mm_mul_pd(lik, _mm_loadu_pd(pk + 10)));
      a6 = _mm_sub_pd(a6, _mm_mul_pd(lik, _mm_loadu_pd(pk + 12)));
      a7 = _mm_sub_pd(a7, _mm_mul_pd(lik, _mm_loadu_pd(pk + 14)));
    }
    const __m128d lii = _mm_set1_pd(li[i]);
    _mm_storeu_pd(pi + 0, _mm_div_pd(a0, lii));
    _mm_storeu_pd(pi + 2, _mm_div_pd(a1, lii));
    _mm_storeu_pd(pi + 4, _mm_div_pd(a2, lii));
    _mm_storeu_pd(pi + 6, _mm_div_pd(a3, lii));
    _mm_storeu_pd(pi + 8, _mm_div_pd(a4, lii));
    _mm_storeu_pd(pi + 10, _mm_div_pd(a5, lii));
    _mm_storeu_pd(pi + 12, _mm_div_pd(a6, lii));
    _mm_storeu_pd(pi + 14, _mm_div_pd(a7, lii));
  }
}
#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// AVX build of the sixteen-lane solve: four 4-wide accumulators per row
/// leave room for two-row tiling, so each factor row and each panel row is
/// loaded once per pair. vmulpd/vsubpd/vdivpd are per-lane IEEE doubles
/// (no FMA — fusing would drop the intermediate rounding and change bits),
/// so lane c still reproduces ForwardSolve's exact operation order.
__attribute__((target("avx"))) void SolvePanel16Avx(const double* ld,
                                                    size_t n, size_t stride,
                                                    double* panel,
                                                    size_t pstride) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double* li = ld + i * stride;
    const double* mi = ld + (i + 1) * stride;
    double* pi = panel + i * pstride;
    double* qi = panel + (i + 1) * pstride;
    __m256d p0 = _mm256_loadu_pd(pi + 0), p1 = _mm256_loadu_pd(pi + 4);
    __m256d p2 = _mm256_loadu_pd(pi + 8), p3 = _mm256_loadu_pd(pi + 12);
    __m256d q0 = _mm256_loadu_pd(qi + 0), q1 = _mm256_loadu_pd(qi + 4);
    __m256d q2 = _mm256_loadu_pd(qi + 8), q3 = _mm256_loadu_pd(qi + 12);
    for (size_t k = 0; k < i; ++k) {
      const __m256d lik = _mm256_broadcast_sd(li + k);
      const __m256d mik = _mm256_broadcast_sd(mi + k);
      const double* pk = panel + k * pstride;
      const __m256d c0 = _mm256_loadu_pd(pk + 0);
      const __m256d c1 = _mm256_loadu_pd(pk + 4);
      const __m256d c2 = _mm256_loadu_pd(pk + 8);
      const __m256d c3 = _mm256_loadu_pd(pk + 12);
      p0 = _mm256_sub_pd(p0, _mm256_mul_pd(lik, c0));
      p1 = _mm256_sub_pd(p1, _mm256_mul_pd(lik, c1));
      p2 = _mm256_sub_pd(p2, _mm256_mul_pd(lik, c2));
      p3 = _mm256_sub_pd(p3, _mm256_mul_pd(lik, c3));
      q0 = _mm256_sub_pd(q0, _mm256_mul_pd(mik, c0));
      q1 = _mm256_sub_pd(q1, _mm256_mul_pd(mik, c1));
      q2 = _mm256_sub_pd(q2, _mm256_mul_pd(mik, c2));
      q3 = _mm256_sub_pd(q3, _mm256_mul_pd(mik, c3));
    }
    const __m256d lii = _mm256_broadcast_sd(li + i);
    p0 = _mm256_div_pd(p0, lii);
    p1 = _mm256_div_pd(p1, lii);
    p2 = _mm256_div_pd(p2, lii);
    p3 = _mm256_div_pd(p3, lii);
    _mm256_storeu_pd(pi + 0, p0);
    _mm256_storeu_pd(pi + 4, p1);
    _mm256_storeu_pd(pi + 8, p2);
    _mm256_storeu_pd(pi + 12, p3);
    const __m256d mii = _mm256_broadcast_sd(mi + i);
    q0 = _mm256_sub_pd(q0, _mm256_mul_pd(mii, p0));
    q1 = _mm256_sub_pd(q1, _mm256_mul_pd(mii, p1));
    q2 = _mm256_sub_pd(q2, _mm256_mul_pd(mii, p2));
    q3 = _mm256_sub_pd(q3, _mm256_mul_pd(mii, p3));
    const __m256d mjj = _mm256_broadcast_sd(mi + i + 1);
    q0 = _mm256_div_pd(q0, mjj);
    q1 = _mm256_div_pd(q1, mjj);
    q2 = _mm256_div_pd(q2, mjj);
    q3 = _mm256_div_pd(q3, mjj);
    _mm256_storeu_pd(qi + 0, q0);
    _mm256_storeu_pd(qi + 4, q1);
    _mm256_storeu_pd(qi + 8, q2);
    _mm256_storeu_pd(qi + 12, q3);
  }
  for (; i < n; ++i) {
    const double* li = ld + i * stride;
    double* pi = panel + i * pstride;
    __m256d p0 = _mm256_loadu_pd(pi + 0), p1 = _mm256_loadu_pd(pi + 4);
    __m256d p2 = _mm256_loadu_pd(pi + 8), p3 = _mm256_loadu_pd(pi + 12);
    for (size_t k = 0; k < i; ++k) {
      const __m256d lik = _mm256_broadcast_sd(li + k);
      const double* pk = panel + k * pstride;
      p0 = _mm256_sub_pd(p0, _mm256_mul_pd(lik, _mm256_loadu_pd(pk + 0)));
      p1 = _mm256_sub_pd(p1, _mm256_mul_pd(lik, _mm256_loadu_pd(pk + 4)));
      p2 = _mm256_sub_pd(p2, _mm256_mul_pd(lik, _mm256_loadu_pd(pk + 8)));
      p3 = _mm256_sub_pd(p3, _mm256_mul_pd(lik, _mm256_loadu_pd(pk + 12)));
    }
    const __m256d lii = _mm256_broadcast_sd(li + i);
    _mm256_storeu_pd(pi + 0, _mm256_div_pd(p0, lii));
    _mm256_storeu_pd(pi + 4, _mm256_div_pd(p1, lii));
    _mm256_storeu_pd(pi + 8, _mm256_div_pd(p2, lii));
    _mm256_storeu_pd(pi + 12, _mm256_div_pd(p3, lii));
  }
}

bool AvxAvailable() {
  static const bool ok = __builtin_cpu_supports("avx");
  return ok && !g_sse2_kernels.load(std::memory_order_relaxed);
}
#endif  // ATUNE_HAVE_AVX_DISPATCH
#endif  // ATUNE_HAVE_SSE2

template <typename Rows>
bool BlockedCholesky4(const double* a, double* ld, size_t n, Rows rows) {
  // Row i, columns blocked by four: four independent subtraction chains
  // over the shared prefix k < j, then a sequential in-block tail. Same
  // ascending-k order per element as reference::Cholesky — bit-identical;
  // the blocking only buys instruction-level parallelism. Reads only A's
  // lower triangle, each entry before the factor entry at the same
  // position is written, so a == ld factors in place. `rows` addresses
  // both A and L.
  for (size_t i = 0; i < n; ++i) {
    const double* ai = a + rows(i);
    double* li = ld + rows(i);
    size_t j = 0;
    for (; j + 4 <= i; j += 4) {
      const double* r0 = ld + rows(j + 0);
      const double* r1 = ld + rows(j + 1);
      const double* r2 = ld + rows(j + 2);
      const double* r3 = ld + rows(j + 3);
      double acc0 = ai[j + 0];
      double acc1 = ai[j + 1];
      double acc2 = ai[j + 2];
      double acc3 = ai[j + 3];
      for (size_t k = 0; k < j; ++k) {
        double lik = li[k];
        acc0 -= lik * r0[k];
        acc1 -= lik * r1[k];
        acc2 -= lik * r2[k];
        acc3 -= lik * r3[k];
      }
      double l0 = acc0 / r0[j + 0];
      li[j + 0] = l0;
      acc1 -= l0 * r1[j + 0];
      double l1 = acc1 / r1[j + 1];
      li[j + 1] = l1;
      acc2 -= l0 * r2[j + 0];
      acc2 -= l1 * r2[j + 1];
      double l2 = acc2 / r2[j + 2];
      li[j + 2] = l2;
      acc3 -= l0 * r3[j + 0];
      acc3 -= l1 * r3[j + 1];
      acc3 -= l2 * r3[j + 2];
      li[j + 3] = acc3 / r3[j + 3];
    }
    for (; j < i; ++j) {
      const double* rj = ld + rows(j);
      double sum = ai[j];
      for (size_t k = 0; k < j; ++k) sum -= li[k] * rj[k];
      li[j] = sum / rj[j];
    }
    double sum = ai[i];
    for (size_t k = 0; k < i; ++k) sum -= li[k] * li[k];
    if (sum <= 0.0) return false;
    li[i] = std::sqrt(sum);
  }
  return true;
}

#if defined(ATUNE_HAVE_SSE2)
/// Shared-prefix bulk for one panel row: acc[c] -= sum_{k<j0} li[k]*pt[k*8+c]
/// with each lane an independent ascending-k chain (bit-identical to the
/// scalar loop). `pt` is the panel's transposed prefix buffer.
void PanelBulkRowSse2(const double* pt, size_t j0, const double* li,
                      double* acc) {
  __m128d p0 = _mm_loadu_pd(acc + 0), p1 = _mm_loadu_pd(acc + 2);
  __m128d p2 = _mm_loadu_pd(acc + 4), p3 = _mm_loadu_pd(acc + 6);
  for (size_t k = 0; k < j0; ++k) {
    const __m128d lik = _mm_set1_pd(li[k]);
    const double* ptk = pt + k * 8;
    p0 = _mm_sub_pd(p0, _mm_mul_pd(lik, _mm_loadu_pd(ptk + 0)));
    p1 = _mm_sub_pd(p1, _mm_mul_pd(lik, _mm_loadu_pd(ptk + 2)));
    p2 = _mm_sub_pd(p2, _mm_mul_pd(lik, _mm_loadu_pd(ptk + 4)));
    p3 = _mm_sub_pd(p3, _mm_mul_pd(lik, _mm_loadu_pd(ptk + 6)));
  }
  _mm_storeu_pd(acc + 0, p0);
  _mm_storeu_pd(acc + 2, p1);
  _mm_storeu_pd(acc + 4, p2);
  _mm_storeu_pd(acc + 6, p3);
}

/// Two-row variant sharing the pt column loads.
void PanelBulkPairSse2(const double* pt, size_t j0, const double* li,
                       const double* mi, double* accp, double* accq) {
  __m128d p0 = _mm_loadu_pd(accp + 0), p1 = _mm_loadu_pd(accp + 2);
  __m128d p2 = _mm_loadu_pd(accp + 4), p3 = _mm_loadu_pd(accp + 6);
  __m128d q0 = _mm_loadu_pd(accq + 0), q1 = _mm_loadu_pd(accq + 2);
  __m128d q2 = _mm_loadu_pd(accq + 4), q3 = _mm_loadu_pd(accq + 6);
  for (size_t k = 0; k < j0; ++k) {
    const __m128d lik = _mm_set1_pd(li[k]);
    const __m128d mik = _mm_set1_pd(mi[k]);
    const double* ptk = pt + k * 8;
    const __m128d c0 = _mm_loadu_pd(ptk + 0);
    const __m128d c1 = _mm_loadu_pd(ptk + 2);
    const __m128d c2 = _mm_loadu_pd(ptk + 4);
    const __m128d c3 = _mm_loadu_pd(ptk + 6);
    p0 = _mm_sub_pd(p0, _mm_mul_pd(lik, c0));
    p1 = _mm_sub_pd(p1, _mm_mul_pd(lik, c1));
    p2 = _mm_sub_pd(p2, _mm_mul_pd(lik, c2));
    p3 = _mm_sub_pd(p3, _mm_mul_pd(lik, c3));
    q0 = _mm_sub_pd(q0, _mm_mul_pd(mik, c0));
    q1 = _mm_sub_pd(q1, _mm_mul_pd(mik, c1));
    q2 = _mm_sub_pd(q2, _mm_mul_pd(mik, c2));
    q3 = _mm_sub_pd(q3, _mm_mul_pd(mik, c3));
  }
  _mm_storeu_pd(accp + 0, p0);
  _mm_storeu_pd(accp + 2, p1);
  _mm_storeu_pd(accp + 4, p2);
  _mm_storeu_pd(accp + 6, p3);
  _mm_storeu_pd(accq + 0, q0);
  _mm_storeu_pd(accq + 2, q1);
  _mm_storeu_pd(accq + 4, q2);
  _mm_storeu_pd(accq + 6, q3);
}

/// In-block tail of four rows below a full panel, lane r carrying row r:
/// for c = 0..7, L(r, j0 + c) = (acc[r * 8 + c] - sum_{k<c} L(r, j0 + k) *
/// blk[c * 8 + k]) / blk[c * 8 + c], subtractions in ascending k, exactly
/// the scalar tail's chain per row. `blk` is the panel's diagonal block
/// (row c, column k <= c) and l[r] is row r. Rows 0 and 1 share one
/// register, rows 2 and 3 the other.
void PanelTail4Sse2(const double* blk, const double* acc, double* const* l,
                    size_t j0) {
  __m128d p[8], q[8];
  for (size_t c = 0; c < 8; c += 2) {
    const __m128d a0 = _mm_loadu_pd(acc + 0 + c);
    const __m128d a1 = _mm_loadu_pd(acc + 8 + c);
    const __m128d a2 = _mm_loadu_pd(acc + 16 + c);
    const __m128d a3 = _mm_loadu_pd(acc + 24 + c);
    p[c] = _mm_unpacklo_pd(a0, a1);
    p[c + 1] = _mm_unpackhi_pd(a0, a1);
    q[c] = _mm_unpacklo_pd(a2, a3);
    q[c + 1] = _mm_unpackhi_pd(a2, a3);
  }
#pragma GCC unroll 8
  for (size_t c = 0; c < 8; ++c) {
    const double* bc = blk + c * 8;
#pragma GCC unroll 8
    for (size_t k = 0; k < c; ++k) {
      const __m128d b = _mm_set1_pd(bc[k]);
      p[c] = _mm_sub_pd(p[c], _mm_mul_pd(p[k], b));
      q[c] = _mm_sub_pd(q[c], _mm_mul_pd(q[k], b));
    }
    const __m128d d = _mm_set1_pd(bc[c]);
    p[c] = _mm_div_pd(p[c], d);
    q[c] = _mm_div_pd(q[c], d);
  }
  for (size_t c = 0; c < 8; c += 2) {
    _mm_storeu_pd(l[0] + j0 + c, _mm_unpacklo_pd(p[c], p[c + 1]));
    _mm_storeu_pd(l[1] + j0 + c, _mm_unpackhi_pd(p[c], p[c + 1]));
    _mm_storeu_pd(l[2] + j0 + c, _mm_unpacklo_pd(q[c], q[c + 1]));
    _mm_storeu_pd(l[3] + j0 + c, _mm_unpackhi_pd(q[c], q[c + 1]));
  }
}

#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// AVX builds of the two bulk helpers: same per-lane chains, half the
/// instructions (no FMA — fusing would change bits). Picked at runtime.
__attribute__((target("avx"))) void PanelBulkRowAvx(const double* pt,
                                                    size_t j0,
                                                    const double* li,
                                                    double* acc) {
  __m256d p0 = _mm256_loadu_pd(acc + 0), p1 = _mm256_loadu_pd(acc + 4);
  for (size_t k = 0; k < j0; ++k) {
    const __m256d lik = _mm256_broadcast_sd(li + k);
    const double* ptk = pt + k * 8;
    p0 = _mm256_sub_pd(p0, _mm256_mul_pd(lik, _mm256_loadu_pd(ptk + 0)));
    p1 = _mm256_sub_pd(p1, _mm256_mul_pd(lik, _mm256_loadu_pd(ptk + 4)));
  }
  _mm256_storeu_pd(acc + 0, p0);
  _mm256_storeu_pd(acc + 4, p1);
}

__attribute__((target("avx"))) void PanelBulkPairAvx(
    const double* pt, size_t j0, const double* li, const double* mi,
    double* accp, double* accq) {
  __m256d p0 = _mm256_loadu_pd(accp + 0), p1 = _mm256_loadu_pd(accp + 4);
  __m256d q0 = _mm256_loadu_pd(accq + 0), q1 = _mm256_loadu_pd(accq + 4);
  for (size_t k = 0; k < j0; ++k) {
    const __m256d lik = _mm256_broadcast_sd(li + k);
    const __m256d mik = _mm256_broadcast_sd(mi + k);
    const double* ptk = pt + k * 8;
    const __m256d c0 = _mm256_loadu_pd(ptk + 0);
    const __m256d c1 = _mm256_loadu_pd(ptk + 4);
    p0 = _mm256_sub_pd(p0, _mm256_mul_pd(lik, c0));
    p1 = _mm256_sub_pd(p1, _mm256_mul_pd(lik, c1));
    q0 = _mm256_sub_pd(q0, _mm256_mul_pd(mik, c0));
    q1 = _mm256_sub_pd(q1, _mm256_mul_pd(mik, c1));
  }
  _mm256_storeu_pd(accp + 0, p0);
  _mm256_storeu_pd(accp + 4, p1);
  _mm256_storeu_pd(accq + 0, q0);
  _mm256_storeu_pd(accq + 4, q1);
}

/// 4 x 4 transpose of the rows a0..a3; it is its own inverse.
__attribute__((target("avx"), always_inline)) inline void Transpose4Avx(
    __m256d& a0, __m256d& a1, __m256d& a2, __m256d& a3) {
  const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
  const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
  const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
  const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
  a0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  a1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  a2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  a3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// AVX build of PanelTail4Sse2: the four rows' chains in one register.
__attribute__((target("avx"))) void PanelTail4Avx(const double* blk,
                                                  const double* acc,
                                                  double* const* l,
                                                  size_t j0) {
  __m256d col[8];
  for (size_t h = 0; h < 8; h += 4) {
    col[h + 0] = _mm256_loadu_pd(acc + 0 + h);
    col[h + 1] = _mm256_loadu_pd(acc + 8 + h);
    col[h + 2] = _mm256_loadu_pd(acc + 16 + h);
    col[h + 3] = _mm256_loadu_pd(acc + 24 + h);
    Transpose4Avx(col[h + 0], col[h + 1], col[h + 2], col[h + 3]);
  }
#pragma GCC unroll 8
  for (size_t c = 0; c < 8; ++c) {
    const double* bc = blk + c * 8;
#pragma GCC unroll 8
    for (size_t k = 0; k < c; ++k) {
      col[c] = _mm256_sub_pd(
          col[c], _mm256_mul_pd(col[k], _mm256_broadcast_sd(bc + k)));
    }
    col[c] = _mm256_div_pd(col[c], _mm256_broadcast_sd(bc + c));
  }
  for (size_t h = 0; h < 8; h += 4) {
    Transpose4Avx(col[h + 0], col[h + 1], col[h + 2], col[h + 3]);
    _mm256_storeu_pd(l[0] + j0 + h, col[h + 0]);
    _mm256_storeu_pd(l[1] + j0 + h, col[h + 1]);
    _mm256_storeu_pd(l[2] + j0 + h, col[h + 2]);
    _mm256_storeu_pd(l[3] + j0 + h, col[h + 3]);
  }
}
#endif  // ATUNE_HAVE_AVX_DISPATCH

template <typename Rows>
bool PanelCholesky8(const double* a, double* ld, size_t n, Rows rows,
                    double* pt) {
  // Left-looking, eight columns at a time. For each column panel
  // [j0, j0+8) the prefixes of its eight factor rows (columns < j0, all
  // final by now) are copied once into a small transposed buffer
  // (pt[k*8 + c] = L(j0+c, k), at most 8*n doubles, cache-resident), so the
  // dominant shared-prefix subtraction reads eight contiguous lanes per k;
  // explicit SSE2 two-lane ops process them. Rows below the panel go four
  // at a time: two bulk pairs share the column loads, and then the four
  // rows' in-block tails k in [j0, j), each a chain of dependent divides,
  // run abreast in SIMD lanes, lane r carrying row r. A leftover pair and
  // single row keep the scalar tail. Every SIMD lane is an independent
  // per-element chain whose subtractions land in the same ascending-k order
  // as reference::Cholesky — bulk prefix k < j0 through the buffer, then
  // the in-block tail — so the factor is bit-identical; the panelization
  // and lanes only buy SIMD width and instruction-level parallelism (the
  // naive loop is one serial multiply-subtract chain per element).
  // Hand-written intrinsics because GCC's auto-vectorizer
  // turns the same loop into a shuffle storm that is slower than scalar.
  // `pt` is caller storage of kPanel * n doubles. Like BlockedCholesky4,
  // a == ld factors in place: each lower-triangle entry of A is read before
  // its factor entry is written. A diagonal-block row also reads the w
  // entries from column j0 on, past its own diagonal: dense, those are the
  // upper triangle; packed, the start of the next rows. Either way they
  // lie inside the buffer (column j0 + w - 1 <= n - 1 of a row i <= n - 1
  // ends at or before the last row's diagonal) and only fill accumulator
  // lanes that are never used.
  constexpr size_t kPanel = 8;
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  const bool use_avx = AvxAvailable();
#else
  const bool use_avx = false;
#endif
  for (size_t j0 = 0; j0 < n; j0 += kPanel) {
    const size_t w = std::min(kPanel, n - j0);
    for (size_t k = 0; k < j0; ++k) {
      double* ptk = pt + k * kPanel;
      for (size_t c = 0; c < w; ++c) ptk[c] = ld[rows(j0 + c) + k];
      for (size_t c = w; c < kPanel; ++c) ptk[c] = 0.0;
    }
    // Diagonal-block rows: vector bulk over k < j0, then the scalar
    // in-block tail and this panel's diagonal element.
    for (size_t i = j0; i < j0 + w; ++i) {
      const double* ai = a + rows(i);
      double* li = ld + rows(i);
      double acc[kPanel] = {};
      for (size_t c = 0; c < w; ++c) acc[c] = ai[j0 + c];
#if defined(ATUNE_HAVE_AVX_DISPATCH)
      if (use_avx) {
        PanelBulkRowAvx(pt, j0, li, acc);
      } else {
        PanelBulkRowSse2(pt, j0, li, acc);
      }
#else
      PanelBulkRowSse2(pt, j0, li, acc);
#endif
      for (size_t j = j0; j < i; ++j) {
        const double* rj = ld + rows(j);
        double sum = acc[j - j0];
        for (size_t k = j0; k < j; ++k) sum -= li[k] * rj[k];
        li[j] = sum / rj[j];
      }
      double sum = acc[i - j0];
      for (size_t k = j0; k < i; ++k) sum -= li[k] * li[k];
      if (sum <= 0.0) return false;
      li[i] = std::sqrt(sum);
    }
    // Rows below the panel (only a full panel has any): four at a time,
    // two bulk pairs and then one four-lane tail over the diagonal block.
    size_t i = j0 + w;
    double blk[kPanel * kPanel] = {};
    if (i + 4 <= n) {
      for (size_t c = 0; c < kPanel; ++c) {
        const double* rj = ld + rows(j0 + c) + j0;
        for (size_t k = 0; k <= c; ++k) blk[c * kPanel + k] = rj[k];
      }
    }
    for (; i + 4 <= n; i += 4) {
      double* const l[4] = {ld + rows(i), ld + rows(i + 1), ld + rows(i + 2),
                            ld + rows(i + 3)};
      double acc[4 * kPanel];
      for (size_t r = 0; r < 4; ++r) {
        const double* ar = a + rows(i + r) + j0;
        for (size_t c = 0; c < kPanel; ++c) acc[r * kPanel + c] = ar[c];
      }
#if defined(ATUNE_HAVE_AVX_DISPATCH)
      if (use_avx) {
        PanelBulkPairAvx(pt, j0, l[0], l[1], acc, acc + 8);
        PanelBulkPairAvx(pt, j0, l[2], l[3], acc + 16, acc + 24);
        PanelTail4Avx(blk, acc, l, j0);
        continue;
      }
#endif
      PanelBulkPairSse2(pt, j0, l[0], l[1], acc, acc + 8);
      PanelBulkPairSse2(pt, j0, l[2], l[3], acc + 16, acc + 24);
      PanelTail4Sse2(blk, acc, l, j0);
    }
    // Leftover rows: a pair sharing the column loads, then a single row.
    for (; i + 2 <= n; i += 2) {
      const double* ai = a + rows(i);
      const double* bi = a + rows(i + 1);
      double* li = ld + rows(i);
      double* mi = ld + rows(i + 1);
      double accp[kPanel], accq[kPanel];
      for (size_t c = 0; c < kPanel; ++c) accp[c] = ai[j0 + c];
      for (size_t c = 0; c < kPanel; ++c) accq[c] = bi[j0 + c];
#if defined(ATUNE_HAVE_AVX_DISPATCH)
      if (use_avx) {
        PanelBulkPairAvx(pt, j0, li, mi, accp, accq);
      } else {
        PanelBulkPairSse2(pt, j0, li, mi, accp, accq);
      }
#else
      PanelBulkPairSse2(pt, j0, li, mi, accp, accq);
#endif
      for (size_t c = 0; c < w; ++c) {
        const size_t j = j0 + c;
        const double* rj = ld + rows(j);
        double sum = accp[c];
        for (size_t k = j0; k < j; ++k) sum -= li[k] * rj[k];
        li[j] = sum / rj[j];
      }
      for (size_t c = 0; c < w; ++c) {
        const size_t j = j0 + c;
        const double* rj = ld + rows(j);
        double sum = accq[c];
        for (size_t k = j0; k < j; ++k) sum -= mi[k] * rj[k];
        mi[j] = sum / rj[j];
      }
    }
    for (; i < n; ++i) {
      const double* ai = a + rows(i);
      double* li = ld + rows(i);
      double accp[kPanel];
      for (size_t c = 0; c < kPanel; ++c) accp[c] = ai[j0 + c];
#if defined(ATUNE_HAVE_AVX_DISPATCH)
      if (use_avx) {
        PanelBulkRowAvx(pt, j0, li, accp);
      } else {
        PanelBulkRowSse2(pt, j0, li, accp);
      }
#else
      PanelBulkRowSse2(pt, j0, li, accp);
#endif
      for (size_t c = 0; c < w; ++c) {
        const size_t j = j0 + c;
        const double* rj = ld + rows(j);
        double sum = accp[c];
        for (size_t k = j0; k < j; ++k) sum -= li[k] * rj[k];
        li[j] = sum / rj[j];
      }
    }
  }
  return true;
}
#endif  // ATUNE_HAVE_SSE2

}  // namespace

void SetScalarKernelsForTesting(bool scalar) {
  g_scalar_kernels.store(scalar, std::memory_order_release);
}

bool ScalarKernelsForTesting() {
  return g_scalar_kernels.load(std::memory_order_acquire);
}

void SetSse2KernelsForTesting(bool sse2) {
  g_sse2_kernels.store(sse2, std::memory_order_relaxed);
}

namespace internal {

void ForwardSolvePanel(const Matrix& l, double* panel, size_t panel_stride) {
  const double* ld = l.data().data();
  const size_t n = l.rows();
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (AvxAvailable()) {
    SolvePanel16Avx(ld, n, l.cols(), panel, panel_stride);
    return;
  }
#endif
#if defined(ATUNE_HAVE_SSE2)
  SolvePanel16Sse2(ld, n, l.cols(), panel, panel_stride);
#else
  SolvePanelFixed<kPanelLanes>(ld, n, l.cols(), panel, panel_stride);
#endif
}

}  // namespace internal

Vec Matrix::Row(size_t r) const {
  Vec out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = At(r, c);
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  if (ScalarKernelsForTesting()) return reference::Multiply(*this, other);
  Matrix out(rows_, other.cols_);
  // i-k-j with the zero-skip, as in reference::Multiply — the skip keeps
  // ±0.0/NaN propagation (and therefore bits) identical. Row spans make the
  // j loop contiguous and vectorizable.
  const size_t m = other.cols_;
  for (size_t i = 0; i < rows_; ++i) {
    const double* ai = RowPtr(i);
    double* oi = out.RowPtr(i);
    for (size_t k = 0; k < cols_; ++k) {
      double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = other.RowPtr(k);
      for (size_t j = 0; j < m; ++j) oi[j] += aik * bk[j];
    }
  }
  return out;
}

Vec Matrix::MultiplyVec(const Vec& v) const {
  assert(v.size() == cols_);
  Vec out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += At(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

void Matrix::AddDiagonal(double s) {
  size_t n = rows_ < cols_ ? rows_ : cols_;
  for (size_t i = 0; i < n; ++i) At(i, i) += s;
}

Result<Matrix> Matrix::Cholesky() const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  if (ScalarKernelsForTesting()) return reference::Cholesky(*this);
  size_t n = rows_;
  Matrix l(n, n);
  const double* a = data_.data();
  double* ld = l.data_.data();
  bool pd;
#if defined(ATUNE_HAVE_SSE2)
  std::vector<double> pt;
  if (n >= kPanelCholeskyFrom) {
    pt.resize(8 * n);
    pd = PanelCholesky8(a, ld, n, DenseRows{n}, pt.data());
  } else {
    pd = BlockedCholesky4(a, ld, n, DenseRows{n});
  }
#else
  pd = BlockedCholesky4(a, ld, n, DenseRows{n});
#endif
  if (!pd) {
    return Status::FailedPrecondition(
        "matrix is not positive definite (Cholesky pivot <= 0)");
  }
  return l;
}

template <typename Rows>
bool CholeskyInPlace(double* a, size_t n, Rows rows, double* panel) {
#if defined(ATUNE_HAVE_SSE2)
  // The same kernel choice as Cholesky(), so the factors are bit-identical.
  return n >= kPanelCholeskyFrom ? PanelCholesky8(a, a, n, rows, panel)
                                 : BlockedCholesky4(a, a, n, rows);
#else
  (void)panel;
  return BlockedCholesky4(a, a, n, rows);
#endif
}
template bool CholeskyInPlace<DenseRows>(double*, size_t, DenseRows, double*);
template bool CholeskyInPlace<PackedRows>(double*, size_t, PackedRows,
                                          double*);

namespace packed {

void ForwardSolveInto(const double* l, size_t n, const double* b, double* y) {
  BlockedForwardSubstitute(l, n, PackedRows{}, b, y);
}

// BackwardSolveTransposeInto's loop with L(k, ii) read from packed row k.
void BackwardSolveTransposeInto(const double* l, size_t n, const double* y,
                                double* x) {
  const PackedRows rows;
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l[rows(k) + ii] * x[k];
    x[ii] = sum / l[rows(ii) + ii];
  }
}

double LogDetFromCholesky(const double* l, size_t n) {
  const PackedRows rows;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::log(l[rows(i) + i]);
  return 2.0 * acc;
}

}  // namespace packed

Status Matrix::CholeskyAppendRow(const Vec& row) {
  if (rows_ != cols_) {
    return Status::InvalidArgument(
        "CholeskyAppendRow requires a square factor");
  }
  if (row.size() != rows_ + 1) {
    return Status::InvalidArgument(
        "CholeskyAppendRow: row must have rows()+1 entries");
  }
  if (ScalarKernelsForTesting()) {
    return reference::CholeskyAppendRow(this, row);
  }
  size_t n = rows_;
  // New off-diagonal row: forward-substitute L l12 = k12 (the blocked solve
  // keeps each element's term order matching Cholesky()'s inner loop, so
  // the factor stays bit-identical to refactorizing).
  static thread_local Vec l12;
  l12.resize(n);
  BlockedForwardSubstitute(data_.data(), n, DenseRows{cols_}, row.data(),
                           l12.data());
  double diag = row[n];
  for (size_t k = 0; k < n; ++k) diag -= l12[k] * l12[k];
  if (diag <= 0.0) {
    return Status::FailedPrecondition(
        "matrix is not positive definite (Cholesky pivot <= 0)");
  }
  // Grow in place: append storage, then re-lay rows out for the wider
  // stride from the bottom up (each destination starts at or past its
  // source, and rows below were already moved, so memmove is safe). The new
  // upper-triangle column entries are zeroed explicitly. This replaces the
  // old build-a-copy growth — no temporary (n+1)² matrix per append.
  data_.resize((n + 1) * (n + 1));
  for (size_t i = n; i-- > 1;) {
    double* dst = data_.data() + i * (n + 1);
    const double* src = data_.data() + i * n;
    std::memmove(dst, src, n * sizeof(double));
    dst[n] = 0.0;
  }
  double* last = data_.data() + n * (n + 1);
  if (n > 0) {
    data_[n] = 0.0;
    // Guarded: the first append's l12 is empty, and memcpy must not get
    // its null storage even for zero bytes.
    std::memcpy(last, l12.data(), n * sizeof(double));
  }
  last[n] = std::sqrt(diag);
  rows_ = n + 1;
  cols_ = n + 1;
  return Status::OK();
}

Vec Matrix::ForwardSolve(const Matrix& l, const Vec& b) {
  size_t n = l.rows();
  assert(b.size() == n);
  if (ScalarKernelsForTesting()) return reference::ForwardSolve(l, b);
  Vec y(n, 0.0);
  BlockedForwardSubstitute(l.data_.data(), n, DenseRows{l.cols_}, b.data(),
                           y.data());
  return y;
}

void Matrix::ForwardSolveInto(const Matrix& l, const double* b, double* y) {
  size_t n = l.rows();
  if (ScalarKernelsForTesting()) {
    // Naive span loop, identical to reference::ForwardSolve (y == b safe:
    // b[i] is read before y[i] is written and only finalized y[k] follow).
    for (size_t i = 0; i < n; ++i) {
      const double* ri = l.RowPtr(i);
      double sum = b[i];
      for (size_t k = 0; k < i; ++k) sum -= ri[k] * y[k];
      y[i] = sum / ri[i];
    }
    return;
  }
  BlockedForwardSubstitute(l.data_.data(), n, DenseRows{l.cols_}, b, y);
}

// Stays naive by design: the k-th subtraction of element ii reads x[k]
// for k > ii, i.e. in-block elements that a descending block would finalize
// *after* the bulk phase — there is no blocking that preserves each
// element's subtraction order. It runs once per GP refit (not per
// candidate), so it is off the hot path. See matrix.h.
Vec Matrix::BackwardSolveTranspose(const Matrix& l, const Vec& y) {
  size_t n = l.rows();
  assert(y.size() == n);
  Vec x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l.At(k, ii) * x[k];
    x[ii] = sum / l.At(ii, ii);
  }
  return x;
}

void Matrix::BackwardSolveTransposeInto(const Matrix& l, const double* y,
                                        double* x) {
  size_t n = l.rows();
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l.At(k, ii) * x[k];
    x[ii] = sum / l.At(ii, ii);
  }
}

Result<Vec> Matrix::SolveSpd(const Vec& b) const {
  ATUNE_ASSIGN_OR_RETURN(Matrix l, Cholesky());
  Vec y = ForwardSolve(l, b);
  return BackwardSolveTranspose(l, y);
}

double Matrix::LogDetFromCholesky(const Matrix& l) {
  double acc = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) acc += std::log(l.At(i, i));
  return 2.0 * acc;
}

Result<Vec> Matrix::LeastSquares(const Matrix& a, const Vec& b,
                                 double lambda) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("LeastSquares: A rows must match b size");
  }
  Matrix at = a.Transpose();
  Matrix ata = at.Multiply(a);
  ata.AddDiagonal(lambda);
  Vec atb = at.MultiplyVec(b);
  auto sol = ata.SolveSpd(atb);
  if (!sol.ok() && lambda == 0.0) {
    // Rank-deficient unregularized system: retry with a tiny ridge.
    ata.AddDiagonal(1e-10);
    return ata.SolveSpd(atb);
  }
  return sol;
}

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double DotSpan(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const Vec& v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace atune
