#include "math/matrix.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "math/reference_kernels.h"

namespace atune {

namespace {

using internal::Load;
using internal::Store;
using internal::V2;
using internal::V4;

template <typename V>
constexpr size_t kWidth = sizeof(V) / sizeof(double);

/// Columns per PanelCholesky8 panel.
constexpr size_t kPanel = 8;

std::atomic<bool> g_scalar_kernels{false};
std::atomic<bool> g_sse2_kernels{false};

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

/// Backward substitution x = L⁻ᵀ y, L's rows addressed by `rows`; x == y is
/// allowed. Stays naive by design: the k-th subtraction of element ii reads
/// x[k] for k > ii, i.e. in-block elements that a descending block would
/// finalize *after* the bulk phase, so no blocking preserves each element's
/// subtraction order. It runs once per GP refit or probe, not per
/// candidate.
template <typename Rows>
void BackwardSubstituteTranspose(const double* ld, size_t n, Rows rows,
                                 const double* y, double* x) {
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= ld[rows(k) + ii] * x[k];
    x[ii] = sum / ld[rows(ii) + ii];
  }
}

template <typename Rows>
double LogDetOfFactor(const double* ld, size_t n, Rows rows) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::log(ld[rows(i) + i]);
  return 2.0 * acc;
}

// The SIMD kernels. Each is one always-inline body over its lane vector V
// (V2, or V4 inside a target("avx") entry): every lane is one output
// element's own chain, and V's +, -, *, / are per-lane IEEE operations, so
// each element takes the scalar loop's operations in the scalar loop's
// order, with no reassociation and no reciprocal multiply.

/// acc[r][·] -= l[r][k] * src[k * src_stride + ·] for k < count, ascending:
/// kR rows of kA vectors each, the rows sharing each load of src's row k.
template <typename V, size_t kR, size_t kA>
__attribute__((always_inline)) inline void SubtractPrefix(
    V (&acc)[kR][kA], const double* const* l, const double* src,
    size_t src_stride, size_t count) {
  for (size_t k = 0; k < count; ++k) {
    const double* sk = src + k * src_stride;
    V col[kA] = {};
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Load(&col[a], sk + a * kWidth<V>);
    }
    ATUNE_UNROLL for (size_t r = 0; r < kR; ++r) {
      const double lrk = l[r][k];
      ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) acc[r][a] -= lrk * col[a];
    }
  }
}

/// The in-block tail of a forward substitution over kB unknowns x[r], each
/// kA vectors wide: x[r] -= d[r][q] * x[q] for q < r ascending, then
/// x[r] /= d[r][r], row by row.
template <typename V, size_t kB, size_t kA>
__attribute__((always_inline)) inline void SolveInBlock(
    V (&x)[kB][kA], const double* const* d) {
  ATUNE_UNROLL for (size_t r = 0; r < kB; ++r) {
    ATUNE_UNROLL for (size_t q = 0; q < r; ++q) {
      ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) x[r][a] -= d[r][q] * x[q][a];
    }
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) x[r][a] /= d[r][r];
  }
}

/// Rows i .. i + kR - 1 of the sixteen-lane in-place panel forward solve
/// L Y = Y, abreast: each streamed panel row k < i serves all kR factor
/// rows, then the in-block tail finishes them in order. Lane c performs
/// exactly ForwardSolve's operations on column c.
template <typename V, size_t kR>
__attribute__((always_inline)) inline void SolvePanelRows(
    const double* ld, size_t stride, double* panel, size_t pstride,
    size_t i) {
  constexpr size_t kA = internal::kPanelLanes / kWidth<V>;
  const double* l[kR] = {};
  const double* d[kR] = {};
  V acc[kR][kA] = {};
  ATUNE_UNROLL for (size_t r = 0; r < kR; ++r) {
    l[r] = ld + (i + r) * stride;
    d[r] = l[r] + i;
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Load(&acc[r][a], panel + (i + r) * pstride + a * kWidth<V>);
    }
  }
  SubtractPrefix(acc, l, panel, pstride, i);
  SolveInBlock(acc, d);
  ATUNE_UNROLL for (size_t r = 0; r < kR; ++r) {
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Store(panel + (i + r) * pstride + a * kWidth<V>, acc[r][a]);
    }
  }
}

/// The whole panel solve, kR rows abreast and then one at a time. Eight
/// two-lane accumulators per row leave no registers for a second row; with
/// four lanes, two rows fit and share each panel row's loads.
template <typename V, size_t kR>
__attribute__((always_inline)) inline void SolvePanel(
    const double* ld, size_t n, size_t stride, double* panel,
    size_t pstride) {
  size_t i = 0;
  for (; i + kR <= n; i += kR) {
    SolvePanelRows<V, kR>(ld, stride, panel, pstride, i);
  }
  for (; i < n; ++i) SolvePanelRows<V, 1>(ld, stride, panel, pstride, i);
}

/// Shared-prefix bulk for kR panel rows: acc[r * 8 + c] -= l[r][k] *
/// pt[k * 8 + c] over k < j0, where `pt` is the panel's transposed prefix
/// buffer.
template <typename V, size_t kR>
__attribute__((always_inline)) inline void PanelBulk(const double* pt,
                                                     size_t j0,
                                                     const double* const* l,
                                                     double* acc) {
  constexpr size_t kA = kPanel / kWidth<V>;
  V p[kR][kA] = {};
  ATUNE_UNROLL for (size_t r = 0; r < kR; ++r) {
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Load(&p[r][a], acc + r * kPanel + a * kWidth<V>);
    }
  }
  SubtractPrefix(p, l, pt, kPanel, j0);
  ATUNE_UNROLL for (size_t r = 0; r < kR; ++r) {
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Store(acc + r * kPanel + a * kWidth<V>, p[r][a]);
    }
  }
}

/// In-block tail of four rows below a full panel, lane r carrying row r:
/// for c = 0..7, L(r, j0 + c) = (acc[r * 8 + c] - sum_{k<c} L(r, j0 + k) *
/// blk[c * 8 + k]) / blk[c * 8 + c], subtractions in ascending k, exactly
/// the scalar tail's chain per row. `blk` is the panel's diagonal block
/// (row c, column k <= c) and l[r] is row r.
template <typename V>
__attribute__((always_inline)) inline void PanelTail4(const double* blk,
                                                      const double* acc,
                                                      double* const* l,
                                                      size_t j0) {
  constexpr size_t kA = 4 / kWidth<V>;
  V col[kPanel][kA] = {};
  const double* d[kPanel] = {};
  ATUNE_UNROLL for (size_t c = 0; c < kPanel; ++c) {
    const double t[4] = {acc[c], acc[kPanel + c], acc[2 * kPanel + c],
                         acc[3 * kPanel + c]};
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Load(&col[c][a], t + a * kWidth<V>);
    }
    d[c] = blk + c * kPanel;
  }
  SolveInBlock(col, d);
  ATUNE_UNROLL for (size_t c = 0; c < kPanel; ++c) {
    double t[4] = {};
    ATUNE_UNROLL for (size_t a = 0; a < kA; ++a) {
      Store(t + a * kWidth<V>, col[c][a]);
    }
    ATUNE_UNROLL for (size_t r = 0; r < 4; ++r) l[r][j0 + c] = t[r];
  }
}

/// Scalar in-block tail of row `li` in the panel from j0: L(i, j) for j in
/// [j0, j0 + count), each continuing its bulk chain acc[j - j0] over k in
/// [j0, j), ascending, before its divide.
template <typename Rows>
__attribute__((always_inline)) inline void RowTail(const double* ld,
                                                   Rows rows, size_t j0,
                                                   size_t count,
                                                   const double* acc,
                                                   double* li) {
  for (size_t c = 0; c < count; ++c) {
    const size_t j = j0 + c;
    const double* rj = ld + rows(j);
    double sum = acc[c];
    for (size_t k = j0; k < j; ++k) sum -= li[k] * rj[k];
    li[j] = sum / rj[j];
  }
}

template <typename V, typename Rows>
__attribute__((always_inline)) inline bool PanelCholesky8(const double* a,
                                                          double* ld,
                                                          size_t n, Rows rows,
                                                          double* pt) {
  // Left-looking, eight columns at a time. For each column panel
  // [j0, j0+8) the prefixes of its eight factor rows (columns < j0, all
  // final by now) are copied once into a small transposed buffer
  // (pt[k*8 + c] = L(j0+c, k), at most 8*n doubles, cache-resident), so the
  // dominant shared-prefix subtraction reads eight contiguous lanes per k.
  // Rows below the panel go four at a time: two bulk pairs share the column
  // loads, and then the four rows' in-block tails k in [j0, j), each a
  // chain of dependent divides, run abreast in SIMD lanes, lane r carrying
  // row r. A leftover pair and single row keep the scalar tail. Every SIMD
  // lane is an independent per-element chain whose subtractions land in
  // the same ascending-k order as reference::Cholesky — bulk prefix k < j0
  // through the buffer, then the in-block tail — so the factor is
  // bit-identical; the panelization and lanes only buy SIMD width and
  // instruction-level parallelism (the naive loop is one serial
  // multiply-subtract chain per element). A partial last panel (w < 8)
  // has no rows below it, so n < 8 is one partial panel of scalar tails.
  // `pt` is caller storage of kPanel * n doubles. a == ld factors in
  // place: each lower-triangle entry of A is read before its factor entry
  // is written. A diagonal-block row also reads the w entries from column
  // j0 on, past its own diagonal: dense, those are the upper triangle;
  // packed, the start of the next rows. Either way they lie inside the
  // buffer (column j0 + w - 1 <= n - 1 of a row i <= n - 1 ends at or
  // before the last row's diagonal) and only fill accumulator lanes that
  // are never used.
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
      PanelBulk<V, 1>(pt, j0, &li, acc);
      RowTail(ld, rows, j0, i - j0, acc, li);
      double sum = acc[i - j0];
      for (size_t k = j0; k < i; ++k) sum -= li[k] * li[k];
      if (sum <= 0.0) return false;
      li[i] = std::sqrt(sum);
    }
    // Rows below the panel (only a full panel has any): four at a time,
    // two bulk pairs and then one four-lane tail over the diagonal block.
    size_t i = j0 + w;
    double acc[4 * kPanel] = {};
    if (i + 4 <= n) {
      double blk[kPanel * kPanel] = {};
      for (size_t c = 0; c < kPanel; ++c) {
        const double* rj = ld + rows(j0 + c) + j0;
        for (size_t k = 0; k <= c; ++k) blk[c * kPanel + k] = rj[k];
      }
      for (; i + 4 <= n; i += 4) {
        double* const l[4] = {ld + rows(i), ld + rows(i + 1),
                              ld + rows(i + 2), ld + rows(i + 3)};
        for (size_t r = 0; r < 4; ++r) {
          const double* ar = a + rows(i + r) + j0;
          for (size_t c = 0; c < kPanel; ++c) acc[r * kPanel + c] = ar[c];
        }
        PanelBulk<V, 2>(pt, j0, l, acc);
        PanelBulk<V, 2>(pt, j0, l + 2, acc + 2 * kPanel);
        PanelTail4<V>(blk, acc, l, j0);
      }
    }
    // Leftover rows: a pair sharing the column loads, then a single row.
    while (i < n) {
      const size_t count = n - i >= 2 ? 2 : 1;
      double* const l[2] = {ld + rows(i), ld + rows(i + count - 1)};
      for (size_t r = 0; r < count; ++r) {
        const double* ar = a + rows(i + r) + j0;
        for (size_t c = 0; c < kPanel; ++c) acc[r * kPanel + c] = ar[c];
      }
      if (count == 2) {
        PanelBulk<V, 2>(pt, j0, l, acc);
      } else {
        PanelBulk<V, 1>(pt, j0, l, acc);
      }
      for (size_t r = 0; r < count; ++r) {
        RowTail(ld, rows, j0, kPanel, acc + r * kPanel, l[r]);
      }
      i += count;
    }
  }
  return true;
}

/// The distance pass's quotient ops: an IEEE divide per lane, or (in the
/// FMA entry only) internal::ExactQuotient, which rounds the same.
struct DivideQuotient {
  template <typename V>
  __attribute__((always_inline)) static void Apply(V* q, const V& a, double b,
                                                   double) {
    *q = a / b;
  }
};
#if defined(ATUNE_HAVE_AVX_DISPATCH)
struct FmaQuotient {
  __attribute__((target("avx2,fma"), optimize("fp-contract=off"))) static void
  Apply(V4* q, const V4& a, double b, double y) {
    internal::ExactQuotient(q, a, b, y);
  }
};
#endif

/// kV vectors of SquaredDistances' points from i on, against one row x:
/// each lane is one point's chain, ascending j from 0.0, as the scalar
/// loop's.
template <typename V, typename Quotient, size_t kV>
__attribute__((always_inline, optimize("fp-contract=off"))) inline void
DistanceStep(const double* x, const double* pts, size_t stride, size_t i,
             size_t d, const double* ls, const double* inv_ls, double* out) {
  V acc[kV] = {};
  for (size_t j = 0; j < d; ++j) {
    ATUNE_UNROLL for (size_t h = 0; h < kV; ++h) {
      V p = {};
      Load(&p, pts + j * stride + i + h * kWidth<V>);
      V q = {};
      Quotient::Apply(&q, x[j] - p, ls[j], inv_ls[j]);
      acc[h] += q * q;
    }
  }
  ATUNE_UNROLL for (size_t h = 0; h < kV; ++h) {
    Store(out + i + h * kWidth<V>, acc[h]);
  }
}

/// internal::SquaredDistances' body: two vectors of points per step so
/// their quotients overlap, then one, then single points by divide.
template <typename V, typename Quotient>
__attribute__((always_inline, optimize("fp-contract=off"))) inline void
DistanceRows(const double* xs, size_t rows, const double* pts, size_t stride,
             size_t m, size_t d, const double* ls, const double* inv_ls,
             double* out) {
  constexpr size_t kW = kWidth<V>;
  for (size_t r = 0; r < rows; ++r) {
    const double* x = xs + r * d;
    double* o = out + r * m;
    size_t i = 0;
    for (; i + 2 * kW <= m; i += 2 * kW) {
      DistanceStep<V, Quotient, 2>(x, pts, stride, i, d, ls, inv_ls, o);
    }
    if (i + kW <= m) {
      DistanceStep<V, Quotient, 1>(x, pts, stride, i, d, ls, inv_ls, o);
      i += kW;
    }
    for (; i < m; ++i) {
      double acc = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double q = (x[j] - pts[j * stride + i]) / ls[j];
        acc += q * q;
      }
      o[i] = acc;
    }
  }
}

#if defined(ATUNE_HAVE_AVX_DISPATCH)
// The AVX entries, one per dispatched kernel: the same bodies at four lanes
// (vmulpd/vsubpd/vdivpd, never FMA: -ffp-contract=off keeps every multiply
// rounded on its own).
__attribute__((target("avx"))) void SolvePanelAvx(const double* ld, size_t n,
                                                  size_t stride,
                                                  double* panel,
                                                  size_t pstride) {
  SolvePanel<V4, 2>(ld, n, stride, panel, pstride);
}

template <typename Rows>
__attribute__((target("avx"))) bool PanelCholeskyAvx(const double* a,
                                                     double* ld, size_t n,
                                                     Rows rows, double* pt) {
  return PanelCholesky8<V4>(a, ld, n, rows, pt);
}

bool AvxAvailable() {
  static const bool ok = __builtin_cpu_supports("avx");
  return ok && !g_sse2_kernels.load(std::memory_order_relaxed);
}

bool HostHasFma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

// The FMA entry: the distance body at four lanes with the exact quotient.
// flatten inlines FmaQuotient::Apply, which only a target("avx2,fma")
// function may, and fp-contract=off keeps GCC from fusing the body's own
// multiply-adds (acc + q * q) in builds without the top-level flag.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"), flatten)) void
SquaredDistancesFma(const double* xs, size_t rows, const double* pts,
                    size_t stride, size_t m, size_t d, const double* ls,
                    const double* inv_ls, double* out) {
  DistanceRows<V4, FmaQuotient>(xs, rows, pts, stride, m, d, ls, inv_ls, out);
}

/// y[i] = ExpV4's exp(x[i]) for i < count, a multiple of four.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"), flatten)) void
ExpV4Span(const double* x, size_t count, double* y) {
  for (size_t i = 0; i < count; i += 4) {
    V4 v = {};
    Load(&v, x + i);
    V4 e = {};
    internal::ExpV4(&e, v);
    Store(y + i, e);
  }
}
#endif  // ATUNE_HAVE_AVX_DISPATCH

/// PanelCholesky8 at the widest lanes the host runs.
template <typename Rows>
bool PanelCholesky(const double* a, double* ld, size_t n, Rows rows,
                   double* pt) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (AvxAvailable()) return PanelCholeskyAvx(a, ld, n, rows, pt);
#endif
  return PanelCholesky8<V2>(a, ld, n, rows, pt);
}

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

#if defined(ATUNE_HAVE_AVX_DISPATCH)
const uint64_t kExpTable[256] = {
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};
#endif

bool FmaAvailable() {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  return HostHasFma() && !g_sse2_kernels.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

bool ExpV4MatchesReference(double (*reference)(double)) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (!HostHasFma()) return false;
  // Fixed storage: the first GP kernel row may run this on a pool worker,
  // which must not allocate.
  double args[152] = {
      // Arguments where a C2 one ulp off changes exp's bits, and two
      // where the unfused form of the algorithm does.
      -0x1.ea83b26d0e034p+3, -0x1.9eb0a302b11bp+2, -0x1.08476dbe04f14p+7,
      -0x1.43960b71c79d2p+7, -0x1.7fa145cf12a98p+7, -0x1.29e7653647f8p+5,
      -0x1.daeea2792aaep+0,
      // Zeros, and arguments whose exp is subnormal or zero: std::exp's
      // lanes beside fast ones.
      0.0, -0.0, -740.0, -745.0, -1e300};
  size_t count = 12;
  // The fast range's edges 2^-54 and 512 with their neighbours, both signs.
  for (double edge : {0x1p-54, 512.0}) {
    for (double v : {std::nextafter(edge, 0.0), edge,
                     std::nextafter(edge, 1024.0)}) {
      args[count++] = v;
      args[count++] = -v;
    }
  }
  // One argument per table index: -(37 j + 0.3) ln 2 / 128 reduces to the
  // index -37 j mod 128, which runs through all 128 as j does.
  for (int j = 0; j < 128; ++j) {
    args[count++] = -(37.0 * j + 0.3) * 0x1.62e42fefa39efp-8;
  }
  double got[152];
  ExpV4Span(args, count, got);
  for (size_t i = 0; i < count; ++i) {
    const double want = reference(args[i]);
    if (std::memcmp(&got[i], &want, sizeof(double)) != 0) return false;
  }
  return true;
#else
  (void)reference;
  return false;
#endif
}

bool ExpV4Available() {
  static const bool ok =
      ExpV4MatchesReference([](double x) { return std::exp(x); });
  return ok && !g_sse2_kernels.load(std::memory_order_relaxed);
}

bool ExactQuotientOperands(const double* v, size_t count) {
  bool ok = true;
  for (size_t i = 0; i < count; ++i) {
    const double a = std::fabs(v[i]);
    ok &= a == 0.0 || (a >= 0x1p-800 && a <= 0x1p500);
  }
  return ok;
}

bool ExactQuotientDivisors(const double* ls, size_t count) {
  bool ok = true;
  for (size_t i = 0; i < count; ++i) {
    ok &= ls[i] >= 0x1p-40 && ls[i] <= 0x1p40;
  }
  return ok;
}

void SquaredDistances(const double* xs, size_t rows, const double* pts,
                      size_t stride, size_t m, size_t d, const double* ls,
                      const double* inv_ls, bool exact, double* out) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (exact) {
    SquaredDistancesFma(xs, rows, pts, stride, m, d, ls, inv_ls, out);
    return;
  }
#endif
  DistanceRows<V2, DivideQuotient>(xs, rows, pts, stride, m, d, ls, inv_ls,
                                   out);
}

void ForwardSolvePanel(const Matrix& l, double* panel, size_t panel_stride) {
  const double* ld = l.data().data();
  const size_t n = l.rows();
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (AvxAvailable()) {
    SolvePanelAvx(ld, n, l.cols(), panel, panel_stride);
    return;
  }
#endif
  SolvePanel<V2, 1>(ld, n, l.cols(), panel, panel_stride);
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
  std::vector<double> pt(kPanel * n);
  if (!PanelCholesky(data_.data(), l.data_.data(), n, DenseRows{n},
                     pt.data())) {
    return Status::FailedPrecondition(
        "matrix is not positive definite (Cholesky pivot <= 0)");
  }
  return l;
}

template <typename Rows>
bool CholeskyInPlace(double* a, size_t n, Rows rows, double* panel) {
  return PanelCholesky(a, a, n, rows, panel);
}
template bool CholeskyInPlace<DenseRows>(double*, size_t, DenseRows, double*);
template bool CholeskyInPlace<PackedRows>(double*, size_t, PackedRows,
                                          double*);

namespace packed {

void ForwardSolveInto(const double* l, size_t n, const double* b, double* y) {
  BlockedForwardSubstitute(l, n, PackedRows{}, b, y);
}

void BackwardSolveTransposeInto(const double* l, size_t n, const double* y,
                                double* x) {
  BackwardSubstituteTranspose(l, n, PackedRows{}, y, x);
}

double LogDetFromCholesky(const double* l, size_t n) {
  return LogDetOfFactor(l, n, PackedRows{});
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

// Naive by design: see BackwardSubstituteTranspose and matrix.h.
Vec Matrix::BackwardSolveTranspose(const Matrix& l, const Vec& y) {
  assert(y.size() == l.rows());
  Vec x(l.rows(), 0.0);
  BackwardSolveTransposeInto(l, y.data(), x.data());
  return x;
}

void Matrix::BackwardSolveTransposeInto(const Matrix& l, const double* y,
                                        double* x) {
  BackwardSubstituteTranspose(l.data_.data(), l.rows(), DenseRows{l.cols_},
                              y, x);
}

Result<Vec> Matrix::SolveSpd(const Vec& b) const {
  ATUNE_ASSIGN_OR_RETURN(Matrix l, Cholesky());
  Vec y = ForwardSolve(l, b);
  return BackwardSolveTranspose(l, y);
}

double Matrix::LogDetFromCholesky(const Matrix& l) {
  return LogDetOfFactor(l.data_.data(), l.rows(), DenseRows{l.cols_});
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
