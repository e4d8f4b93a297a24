#include "ml/gaussian_process.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "ml/acquisition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace atune {

namespace {
constexpr double kTwoPi = 6.283185307179586;

double ScaledDistance(const Vec& a, const Vec& b,
                      const std::vector<double>& ls) {
  // Guard ragged inputs: only the overlapping dimensions contribute (a
  // mismatched caller gets a sane distance instead of an out-of-bounds
  // read of the shorter vector).
  size_t dims = std::min(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double l = i < ls.size() ? ls[i] : 1.0;
    double d = (a[i] - b[i]) / (l > 1e-12 ? l : 1e-12);
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// Candidates per chunk of ArgmaxAcquisition's scan: one panel of the
/// forward solve, which streams the whole Cholesky factor once per panel.
constexpr size_t kLanes = internal::kPanelLanes;

/// Candidate groups of ArgmaxAcquisition's pruned scan: each prunes against
/// its own best, so fewer groups solve fewer lanes, and the count is fixed,
/// not the thread count, so the solved lanes are the same on every host.
constexpr size_t kAcquisitionGroups = 4;

/// Hyper-search probe threads: the calling thread plus up to five pool
/// workers. Each owns one packed n(n+1)/2 buffer, so six cost what three
/// dense n x n buffers did.
constexpr size_t kMaxProbeThreads = 6;

using internal::Load;
using internal::Store;
using internal::V2;
using internal::V4;

/// The kernel tail's lane ops for the default target: sqrtpd and libm's
/// exp, one lane at a time. GCC's vector extensions have no sqrt, and a
/// per-lane std::sqrt compiles to two sqrtsd with errno fallback calls;
/// sqrtpd is correctly rounded per lane, as std::sqrt is.
struct LibmTailOps {
  __attribute__((always_inline)) static void Sqrt(V2* y, const V2& x) {
#if defined(__SSE2__)
    *y = _mm_sqrt_pd(x);
#else
    *y = V2{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
  }
  __attribute__((always_inline)) static void Exp(V2* y, const V2& x) {
    *y = V2{std::exp(x[0]), std::exp(x[1])};
  }
};
#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// The FMA entry's: the packed sqrt and internal::ExpV4, which rounds as
/// the host's libm does wherever internal::ExpV4Available() holds.
struct FmaTailOps {
  __attribute__((target("avx2,fma"), optimize("fp-contract=off"))) static void
  Sqrt(V4* y, const V4& x) {
    *y = _mm256_sqrt_pd(x);
  }
  __attribute__((target("avx2,fma"), optimize("fp-contract=off"))) static void
  Exp(V4* y, const V4& x) {
    internal::ExpV4(y, x);
  }
};
#endif

/// internal::KernelTailInPlace's body: kW lanes abreast, each entry taking
/// KernelValue's operations in its order, then single entries by libm.
template <typename V, typename Ops>
__attribute__((always_inline, optimize("fp-contract=off"))) inline void
KernelTail(double* out, size_t m, bool se, double sv) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kW <= m; i += kW) {
    V sq = {};
    Load(&sq, out + i);
    V r = {};
    Ops::Sqrt(&r, sq);
    V e = {};
    if (se) {
      Ops::Exp(&e, -0.5 * r * r);
      e = sv * e;
    } else {
      const V s = std::sqrt(5.0) * r;
      Ops::Exp(&e, -s);
      e = sv * (1.0 + s + s * s / 3.0) * e;
    }
    Store(out + i, e);
  }
  for (; i < m; ++i) {
    if (se) {
      double r = std::sqrt(out[i]);
      out[i] = sv * std::exp(-0.5 * r * r);
    } else {
      double s = std::sqrt(5.0) * std::sqrt(out[i]);
      out[i] = sv * (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
  }
}

#if defined(ATUNE_HAVE_AVX_DISPATCH)
// The FMA entry: the tail at four lanes with ExpV4. flatten inlines the
// ops, which only a target("avx2,fma") function may, and fp-contract=off
// keeps GCC from fusing the polynomial's multiply-adds in builds without
// the top-level flag.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"), flatten)) void
KernelTailFma(double* out, size_t m, bool se, double sv) {
  KernelTail<V4, FmaTailOps>(out, m, se, sv);
}
#endif

/// The row builders' view of one kernel over d dimensions: the lengthscales
/// with ScaledDistance's clamp baked in, their reciprocals RN(1 / ls[j]),
/// whether the exact-quotient distance body may run (the host and the
/// training side pass its guards; a caller adds its own points' check),
/// the hoisted kernel switch and signal variance, and whether the tail may
/// take ExpV4.
struct KernelArgs {
  size_t d;
  const double* ls;
  const double* inv_ls;
  bool exact;
  bool se;
  double sv;
  bool fast_exp;
};

/// out[i] = k(x, p_i) for the m points p_i of the column-major point matrix
/// `pts` (p_i[j] = pts[j * stride + i]). The accumulation (x minus point,
/// per dimension, ascending) and the sqrt→kernel round trip are exactly
/// KernelValue's, so each output is bit-identical. Two passes: the squared
/// distances of the whole row go into `out` first (internal::
/// SquaredDistances, several points abreast so their quotients overlap),
/// then internal::KernelTailInPlace runs over `out`.
void KernelRowInto(const double* x, const double* pts, size_t stride,
                   size_t m, const KernelArgs& k, double* out) {
  internal::SquaredDistances(x, 1, pts, stride, m, k.d, k.ls, k.inv_ls,
                             k.exact, out);
  internal::KernelTailInPlace(out, m, k.se, k.sv, k.fast_exp);
}

/// The d x n column-major copy of the n x d row-major `xs` that the row
/// builders read points from: four points' coordinate j are contiguous.
void TransposeInto(const double* xs, size_t n, size_t d, Vec* out) {
  out->resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) (*out)[j * n + i] = xs[i * d + j];
  }
}

/// out[c] = the sum over i < count, ascending from 0.0, of term(rows[i *
/// kLanes + c], i), for each of the kLanes lanes c: eight
/// lanes per step in four two-lane vectors, each lane its own chain in the
/// scalar loop's order. `term` maps a two-lane slice of row i to its terms.
template <typename Term>
void SumLanes(const double* rows, size_t count, const Term& term,
              double* out) {
  for (size_t h = 0; h < kLanes; h += 8) {
    V2 acc[4] = {};
    for (size_t i = 0; i < count; ++i) {
      ATUNE_UNROLL for (size_t q = 0; q < 4; ++q) {
        V2 x = {};
        Load(&x, rows + i * kLanes + h + 2 * q);
        acc[q] += term(x, i);
      }
    }
    ATUNE_UNROLL for (size_t q = 0; q < 4; ++q) {
      Store(out + h + 2 * q, acc[q]);
    }
  }
}

/// Builds the lower triangle of K + jitter I over the n x d row-major
/// training matrix `xs` (and `xs_t`, its column-major copy) into `k`, whose
/// rows `rows` addresses (dense for Fit's factor, packed for the
/// hyper-search probes), and factors it in place, retrying with the jitter
/// raised tenfold (at least 1e-10) up to six tries in all — Fit's
/// escalation. Entry (i, j < i) is k(x_i, x_j): IEEE subtraction is
/// sign-symmetric, so each squared difference, and with it the entry,
/// equals the symmetric build's k(x_j, x_i). On success *jitter holds the
/// jitter that factored. Allocates nothing: `panel` is CholeskyInPlace's.
template <typename Rows>
bool FactorKernelInPlace(const double* xs, const double* xs_t, size_t n,
                         const KernelArgs& kernel, double* jitter, double* k,
                         Rows rows, double* panel) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (attempt > 0) *jitter = std::max(*jitter * 10.0, 1e-10);
    for (size_t i = 0; i < n; ++i) {
      double* ki = k + rows(i);
      KernelRowInto(xs + i * kernel.d, xs_t, n, i, kernel, ki);
      ki[i] = kernel.sv + *jitter;
    }
    if (CholeskyInPlace(k, n, rows, panel)) return true;
  }
  return false;
}

/// log p(y) = -1/2 y^T alpha - 1/2 log|K| - n/2 log(2 pi), from the n
/// centred targets, alpha = K^{-1} y and log|K| from K's Cholesky factor.
double LogMarginal(const double* centered, const double* alpha, size_t n,
                   double log_det) {
  double fit_term = -0.5 * DotSpan(centered, alpha, n);
  double det_term = -0.5 * log_det;
  double const_term = -0.5 * static_cast<double>(n) * std::log(kTwoPi);
  return fit_term + det_term + const_term;
}

/// Runs fn(0) on the calling thread and fn(1), ..., fn(slices - 1) on
/// `pool`, returning once every slice has finished.
template <typename Fn>
void RunSlices(size_t slices, ThreadPool* pool, const Fn& fn) {
  std::vector<std::future<void>> rest;
  rest.reserve(slices - 1);
  for (size_t s = 1; s < slices; ++s) {
    rest.push_back(pool->Submit([&fn, s]() { fn(s); }));
  }
  fn(0);
  for (std::future<void>& f : rest) f.get();
}

/// One probe thread's storage, all sized on the calling thread so the
/// worker that uses it allocates nothing: a worker's first malloc would give
/// it a glibc arena of its own.
struct ProbeBuffers {
  Vec ls;     // the probe's clamped lengthscales
  Vec inv;    // their reciprocals, for the exact quotient
  Vec panel;  // CholeskyInPlace's 8n panel buffer
  Vec y1;     // L^{-1} (y - mean)
  Vec alpha;  // K^{-1} (y - mean)
  Vec k;      // packed K + jitter I, then its factor in place
};

/// The best probe scored so far by FitWithHyperSearch's rule (a larger
/// score, or an equal one at a lower index; NaN and -inf never enter), with
/// the jitter its kernel factored at and its packed factor.
struct KeptProbe {
  size_t index = std::numeric_limits<size_t>::max();  // none yet
  double score = 0.0;
  double jitter = 0.0;
  Vec factor;
};

/// FitWithHyperSearch's in-place scoring of exact probes over equal-length
/// inputs: (*lml)[c] is the log marginal likelihood Fit would give
/// candidates[c], bit for bit, or NaN when its kernel stays indefinite
/// through the jitter retries. The calling thread and the pool workers
/// drain one shared probe index. A probe that beats *kept swaps its buffer
/// with kept->factor under a mutex, so the winner's factor survives the
/// search without a copy.
void ScoreExactProbes(const std::vector<Vec>& xs, const Vec& ys,
                      const std::vector<GpHyperParams>& candidates,
                      ThreadPool* pool, std::vector<double>* lml,
                      KeptProbe* kept) {
  const size_t n = xs.size();
  const size_t d = xs[0].size();
  const size_t count = candidates.size();
  const size_t threads =
      std::min({kMaxProbeThreads, count,
                1 + (pool != nullptr ? pool->num_threads() : 0)});
  // Shared and read-only while the probes run; the targets are centred as
  // RecomputePosterior centres them.
  Vec flat(n * d);
  for (size_t i = 0; i < n; ++i) {
    std::copy(xs[i].begin(), xs[i].end(), flat.begin() + i * d);
  }
  Vec flat_t;
  TransposeInto(flat.data(), n, d, &flat_t);
  const bool exact_data = internal::ExactQuotientOperands(flat.data(), n * d);
  double mean = 0.0;
  for (double y : ys) mean += y;
  mean /= static_cast<double>(n);
  Vec centered(n);
  for (size_t i = 0; i < n; ++i) centered[i] = ys[i] - mean;
  // The small per-thread vectors first, then the packed buffers back to
  // back: interleaving them fragments the heap and raises the peak RSS.
  std::vector<ProbeBuffers> work(threads);
  for (ProbeBuffers& w : work) {
    w.ls.resize(d);
    w.inv.resize(d);
    w.panel.resize(8 * n);
    w.y1.resize(n);
    w.alpha.resize(n);
  }
  for (ProbeBuffers& w : work) w.k.resize(PackedSize(n));
  kept->factor.resize(PackedSize(n));
  const bool fast_exp = internal::ExpV4Available();
  std::mutex kept_mu;
  std::atomic<size_t> next{0};
  RunSlices(threads, pool, [&](size_t t) {
    ProbeBuffers& w = work[t];
    for (size_t c = next++; c < count; c = next++) {
      const GpHyperParams& cand = candidates[c];
      for (size_t j = 0; j < d; ++j) {
        double l = cand.lengthscales[j];
        w.ls[j] = l > 1e-12 ? l : 1e-12;
        w.inv[j] = 1.0 / w.ls[j];
      }
      const KernelArgs kernel{
          d,
          w.ls.data(),
          w.inv.data(),
          exact_data && internal::FmaAvailable() &&
              internal::ExactQuotientDivisors(w.ls.data(), d),
          cand.kernel == KernelType::kSquaredExponential,
          cand.signal_variance,
          fast_exp};
      double jitter = cand.noise_variance;
      if (!FactorKernelInPlace(flat.data(), flat_t.data(), n, kernel, &jitter,
                               w.k.data(), PackedRows{}, w.panel.data())) {
        (*lml)[c] = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      packed::ForwardSolveInto(w.k.data(), n, centered.data(), w.y1.data());
      packed::BackwardSolveTransposeInto(w.k.data(), n, w.y1.data(),
                                         w.alpha.data());
      const double score =
          LogMarginal(centered.data(), w.alpha.data(), n,
                      packed::LogDetFromCholesky(w.k.data(), n));
      (*lml)[c] = score;
      if (!(score > -std::numeric_limits<double>::infinity())) continue;
      std::lock_guard<std::mutex> lock(kept_mu);
      if (kept->index == std::numeric_limits<size_t>::max() ||
          score > kept->score || (score == kept->score && c < kept->index)) {
        kept->index = c;
        kept->score = score;
        kept->jitter = jitter;
        kept->factor.swap(w.k);
      }
    }
  });
}
}  // namespace

namespace internal {

void KernelTailInPlace(double* out, size_t m, bool se, double sv,
                       bool fast_exp) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  if (fast_exp) {
    KernelTailFma(out, m, se, sv);
    return;
  }
#endif
  KernelTail<V2, LibmTailOps>(out, m, se, sv);
}

}  // namespace internal

double GaussianProcess::KernelValue(const Vec& a, const Vec& b) const {
  double r = ScaledDistance(a, b, params_.lengthscales);
  switch (params_.kernel) {
    case KernelType::kSquaredExponential:
      return params_.signal_variance * std::exp(-0.5 * r * r);
    case KernelType::kMatern52: {
      double s = std::sqrt(5.0) * r;
      return params_.signal_variance * (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
  }
  return 0.0;
}

void GaussianProcess::RebuildFlatCache() {
  size_t n = xs_.size();
  size_t d = n > 0 ? xs_[0].size() : 0;
  flat_ok_ = d > 0;
  for (const Vec& x : xs_) {
    if (x.size() != d) {
      flat_ok_ = false;
      break;
    }
  }
  clamped_ls_.resize(d);
  inv_ls_.resize(d);
  const std::vector<double>& ls = params_.lengthscales;
  for (size_t j = 0; j < d; ++j) {
    double l = j < ls.size() ? ls[j] : 1.0;
    clamped_ls_[j] = l > 1e-12 ? l : 1e-12;
    inv_ls_[j] = 1.0 / clamped_ls_[j];
  }
  if (!flat_ok_) {
    xs_flat_.clear();
    xs_t_.clear();
    exact_inputs_ = false;
    return;
  }
  xs_flat_.resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    std::copy(xs_[i].begin(), xs_[i].end(), xs_flat_.begin() + i * d);
  }
  TransposeInto(xs_flat_.data(), n, d, &xs_t_);
  exact_inputs_ =
      internal::ExactQuotientOperands(xs_flat_.data(), n * d) &&
      internal::ExactQuotientDivisors(clamped_ls_.data(), d);
}

bool GaussianProcess::ExactQuotientFor(const double* pts, size_t count) const {
  return exact_inputs_ && internal::FmaAvailable() &&
         internal::ExactQuotientOperands(pts, count);
}

void GaussianProcess::KernelRow(const double* x, double* out) const {
  const size_t d = clamped_ls_.size();
  KernelRowInto(x, xs_t_.data(), xs_.size(), xs_.size(),
                KernelArgs{d, clamped_ls_.data(), inv_ls_.data(),
                           ExactQuotientFor(x, d),
                           params_.kernel == KernelType::kSquaredExponential,
                           params_.signal_variance,
                           internal::ExpV4Available()},
                out);
}

Status GaussianProcess::Fit(const std::vector<Vec>& xs, const Vec& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("GP Fit: empty data or size mismatch");
  }
  size_t n = xs.size();
  size_t dims = xs[0].size();
  if (params_.lengthscales.empty()) {
    params_.lengthscales.assign(dims, 0.3);
  }

  xs_ = xs;
  ys_ = ys;
  RebuildFlatCache();

  double jitter = params_.noise_variance;
  bool factored;
  if (flat_ok_ && !ScalarKernelsForTesting()) {
    // K + jitter I goes straight into the factor's storage and is factored
    // there: one n x n buffer. Nothing writes a fresh buffer's strict upper
    // triangle, so chol_ is byte-equal to Cholesky()'s zero-filled factor.
    chol_ = Matrix(n, n);
    Vec panel(8 * n);
    factored = FactorKernelInPlace(
        xs_flat_.data(), xs_t_.data(), n,
        KernelArgs{dims, clamped_ls_.data(), inv_ls_.data(),
                   exact_inputs_ && internal::FmaAvailable(),
                   params_.kernel == KernelType::kSquaredExponential,
                   SelfKernel(), internal::ExpV4Available()},
        &jitter, chol_.RowPtr(0), DenseRows{n}, panel.data());
  } else {
    // Scalar A/B half and ragged fallback: the per-pair KernelValue loop
    // and a jittered copy per retry through Cholesky().
    Matrix k(n, n);
    for (size_t i = 0; i < n; ++i) {
      k.At(i, i) = SelfKernel();
      for (size_t j = i + 1; j < n; ++j) {
        double v = KernelValue(xs[i], xs[j]);
        k.At(i, j) = v;
        k.At(j, i) = v;
      }
    }
    Result<Matrix> chol = Status::Internal("unset");
    for (int attempt = 0; attempt < 6; ++attempt) {
      Matrix kj = k;
      kj.AddDiagonal(jitter);
      chol = kj.Cholesky();
      if (chol.ok()) break;
      jitter = std::max(jitter * 10.0, 1e-10);
    }
    factored = chol.ok();
    if (factored) chol_ = std::move(chol).value();
  }
  if (!factored) {
    // The in-place factor now holds a partial factorization: never serve it.
    fitted_ = false;
    return Status::Internal("GP Fit: kernel matrix not positive definite");
  }
  jitter_ = jitter;
  RecomputePosterior();
  return Status::OK();
}

void GaussianProcess::RecomputePosterior() {
  size_t n = xs_.size();
  y_mean_ = 0.0;
  for (double y : ys_) y_mean_ += y;
  y_mean_ /= static_cast<double>(n);
  // Thread-local buffers + the *Into solves keep the per-refit triangular
  // pass allocation-free in steady state (each thread's buffers grow to the
  // session's high-water n and stay there).
  static thread_local Vec centered;
  static thread_local Vec y1;
  centered.resize(n);
  y1.resize(n);
  for (size_t i = 0; i < n; ++i) centered[i] = ys_[i] - y_mean_;
  Matrix::ForwardSolveInto(chol_, centered.data(), y1.data());
  alpha_.resize(n);
  Matrix::BackwardSolveTransposeInto(chol_, y1.data(), alpha_.data());

  log_marginal_likelihood_ = LogMarginal(centered.data(), alpha_.data(), n,
                                         Matrix::LogDetFromCholesky(chol_));
  fitted_ = true;
}

Status GaussianProcess::AddObservation(const Vec& x, double y) {
  if (!fitted_) return Fit({x}, Vec{y});
  if (x.size() != xs_[0].size()) {
    return Status::InvalidArgument(
        "GP AddObservation: dimension mismatch with fitted data");
  }
  ScopedSpan span(CurrentTracer(), "gp_fit");
  if (span.active()) {
    span.AddArg("mode", "incremental");
    span.AddArg("n", std::to_string(xs_.size() + 1));
  }
  size_t n = xs_.size();
  // The bordered kernel row goes through the shared builder over the flat
  // cache — no per-observation Vec, same bits as the KernelValue loop.
  static thread_local Vec row;
  row.resize(n + 1);
  if (flat_ok_ && !ScalarKernelsForTesting() && x.size() == clamped_ls_.size()) {
    KernelRow(x.data(), row.data());
  } else {
    for (size_t i = 0; i < n; ++i) row[i] = KernelValue(x, xs_[i]);
  }
  row[n] = SelfKernel() + jitter_;
  Status appended = chol_.CholeskyAppendRow(row);
  xs_.push_back(x);
  ys_.push_back(y);
  RebuildFlatCache();
  if (!appended.ok()) {
    // Degenerate append (duplicate/near-duplicate point): rebuild from
    // scratch, letting Fit escalate the jitter. Copy out first — Fit
    // overwrites the members it reads from.
    if (MetricsRegistry* metrics = CurrentMetrics()) {
      metrics->GetCounter("gp.incremental_fallbacks")->Increment();
    }
    std::vector<Vec> xs = xs_;
    Vec ys = ys_;
    return Fit(xs, ys);
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.incremental_refits")->Increment();
  }
  RecomputePosterior();
  return Status::OK();
}

size_t GaussianProcess::EvictOldest(size_t keep_last) {
  const size_t n = xs_.size();
  if (n <= keep_last) return 0;
  const size_t evicted = n - keep_last;
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.evicted_observations")->Increment(evicted);
  }
  if (keep_last == 0) {
    xs_.clear();
    ys_.clear();
    fitted_ = false;
    RebuildFlatCache();
    return evicted;
  }
  // Copy the retained tail out first — Fit overwrites the members it reads
  // from (the AddObservation fallback discipline above).
  std::vector<Vec> xs(xs_.end() - static_cast<ptrdiff_t>(keep_last),
                      xs_.end());
  Vec ys(ys_.end() - static_cast<ptrdiff_t>(keep_last), ys_.end());
  if (!Fit(xs, ys).ok()) {
    // Honesty over staleness: a window too degenerate to refit leaves the
    // model unfitted, never silently serving the pre-eviction posterior.
    fitted_ = false;
  }
  return evicted;
}

Status GaussianProcess::FitWithHyperSearch(
    const std::vector<Vec>& xs, const Vec& ys, size_t budget, Rng* rng,
    ThreadPool* pool, const std::function<void(Rng*)>& alongside) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("GP Fit: empty data or size mismatch");
  }
  ScopedSpan span(CurrentTracer(), "gp_fit");
  if (span.active()) {
    span.AddArg("mode", "hyper_search");
    span.AddArg("n", std::to_string(xs.size()));
    span.AddArg("budget", std::to_string(budget));
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.hyper_searches")->Increment();
  }
  size_t dims = xs[0].size();
  double y_var = 0.0;
  {
    double m = 0.0;
    for (double y : ys) m += y;
    m /= static_cast<double>(ys.size());
    for (double y : ys) y_var += (y - m) * (y - m);
    y_var /= std::max<size_t>(ys.size() - 1, 1);
    if (y_var <= 0.0) y_var = 1.0;
  }

  // Candidates are drawn up front — the same rng sequence whether they are
  // then scored serially or on the pool, keeping the search deterministic.
  std::vector<GpHyperParams> candidates(std::max<size_t>(budget, 1));
  for (GpHyperParams& cand : candidates) {
    cand.kernel = params_.kernel;
    cand.lengthscales.resize(dims);
    for (double& l : cand.lengthscales) {
      // Log-uniform lengthscales over [0.05, 2] of the unit cube.
      l = std::exp(rng->Uniform(std::log(0.05), std::log(2.0)));
    }
    cand.signal_variance = y_var * std::exp(rng->Uniform(std::log(0.2),
                                                         std::log(5.0)));
    cand.noise_variance =
        y_var * std::exp(rng->Uniform(std::log(1e-6), std::log(1e-1)));
  }

  // The caller's next draws start here: `alongside` takes them from a copy
  // of the stream while the probes are scored, and the copy becomes the
  // stream only if the fit succeeds.
  Rng stream = *rng;
  std::future<void> beside;
  if (alongside && pool != nullptr) {
    beside = pool->Submit([&alongside, &stream]() { alongside(&stream); });
  } else if (alongside) {
    alongside(&stream);
  }

  // Score each candidate's log marginal likelihood (NaN = failed fit).
  std::vector<double> lml(candidates.size());
  KeptProbe kept;
  const bool equal_length =
      dims > 0 && std::all_of(xs.begin(), xs.end(), [dims](const Vec& x) {
        return x.size() == dims;
      });
  if (equal_length && !ScalarKernelsForTesting()) {
    ScoreExactProbes(xs, ys, candidates, pool, &lml, &kept);
  } else {
    auto score = [&xs, &ys](const GpHyperParams& cand) -> double {
      GaussianProcess probe(cand);
      if (!probe.Fit(xs, ys).ok()) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return probe.LogMarginalLikelihood();
    };
    if (pool != nullptr && candidates.size() > 1) {
      std::vector<std::future<double>> futures;
      futures.reserve(candidates.size());
      for (const GpHyperParams& cand : candidates) {
        futures.push_back(
            pool->Submit([&score, &cand]() { return score(cand); }));
      }
      for (size_t i = 0; i < futures.size(); ++i) lml[i] = futures[i].get();
    } else {
      for (size_t i = 0; i < candidates.size(); ++i) {
        lml[i] = score(candidates[i]);
      }
    }
  }

  // First strictly-better candidate wins — index order breaks ties exactly
  // like the serial loop did.
  size_t best = candidates.size();
  double best_lml = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (std::isnan(lml[i])) continue;
    if (lml[i] > best_lml) {
      best_lml = lml[i];
      best = i;
    }
  }
  Status fit = Status::OK();
  if (best == candidates.size()) {
    // Every candidate produced a non-finite log marginal likelihood: the
    // design is degenerate (duplicated points, non-finite targets). Fitting
    // defaults anyway would hand callers a model built on garbage; surface
    // kInternal so a supervision layer can fail over instead.
    fit = Status::Internal(StrFormat(
        "GP hyper search: all %zu candidates produced a non-finite log "
        "marginal likelihood (degenerate design of %zu points)",
        candidates.size(), xs.size()));
  } else if (kept.index == best) {
    // The winning probe already factored K + jitter I with Fit's
    // arithmetic: its packed rows, expanded into a zeroed chol_, are
    // byte-equal to the factor Fit would build, so nothing is refactored.
    params_ = candidates[best];
    xs_ = xs;
    ys_ = ys;
    RebuildFlatCache();
    const size_t n = xs.size();
    chol_ = Matrix(n, n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = kept.factor.data() + PackedRows()(i);
      std::copy(row, row + i + 1, chol_.RowPtr(i));
    }
    jitter_ = kept.jitter;
    RecomputePosterior();
  } else {
    params_ = candidates[best];
    fit = Fit(xs, ys);
  }
  if (beside.valid()) beside.get();
  if (fit.ok()) *rng = stream;
  return fit;
}

GpPrediction GaussianProcess::Predict(const Vec& x) const {
  GpPrediction out;
  if (!fitted_) return out;
  size_t n = xs_.size();
  if (ScalarKernelsForTesting() || !flat_ok_ || x.size() != clamped_ls_.size()) {
    // Pre-speed-layer path, kept verbatim: the scalar half of the
    // bench_hotpath A/B, and the fallback for ragged inputs. Bit-identical
    // to the fast path below.
    Vec kstar(n);
    for (size_t i = 0; i < n; ++i) kstar[i] = KernelValue(x, xs_[i]);
    out.mean = y_mean_ + Dot(kstar, alpha_);
    Vec v = Matrix::ForwardSolve(chol_, kstar);
    double var = SelfKernel() - Dot(v, v);
    out.variance = std::max(var, 0.0);
    return out;
  }
  // The kstar Vec the old loop rebuilt per candidate is gone: thread-local
  // buffers reach steady state after the first call at a given n.
  static thread_local Vec kstar;
  static thread_local Vec v;
  kstar.resize(n);
  v.resize(n);
  KernelRow(x.data(), kstar.data());
  out.mean = y_mean_ + DotSpan(kstar.data(), alpha_.data(), n);
  Matrix::ForwardSolveInto(chol_, kstar.data(), v.data());
  double var = SelfKernel() - DotSpan(v.data(), v.data(), n);
  out.variance = std::max(var, 0.0);
  return out;
}

std::optional<AcquisitionArgmax> GaussianProcess::ArgmaxAcquisition(
    const Matrix& candidates, AcquisitionKind kind, double best,
    ThreadPool* pool) const {
  const size_t m = candidates.rows();
  const size_t n = xs_.size();
  const size_t d = clamped_ls_.size();
  GroupArgmax groups[kAcquisitionGroups];
  size_t group_count = 1;
  if (!fitted_ || ScalarKernelsForTesting() || !flat_ok_ ||
      candidates.cols() != d) {
    // Scalar A/B half (and the fallbacks): the full scan, one Predict per
    // row.
    for (size_t r = 0; r < m; ++r) {
      groups[0].Offer(r, AcquisitionValue(kind, Predict(candidates.Row(r)),
                                          best));
    }
    groups[0].solved = m;
  } else if (m > 0) {
    const size_t chunks = (m + kLanes - 1) / kLanes;
    group_count = std::min(kAcquisitionGroups, chunks);
    const size_t threads = std::min(
        group_count, 1 + (pool != nullptr ? pool->num_threads() : 0));
    // Every thread's panels are sized here, before any worker starts: a
    // worker's first malloc would give it a glibc arena of its own.
    static thread_local Vec scratch;
    scratch.resize(threads * (d + 2 * n) * kLanes);
    double* ct = scratch.data();
    double* panels = ct + threads * d * kLanes;
    std::atomic<size_t> next{0};
    RunSlices(threads, pool, [&](size_t t) {
      for (size_t g = next++; g < group_count; g = next++) {
        ScanGroup(candidates, chunks * g / group_count * kLanes,
                  std::min(m, chunks * (g + 1) / group_count * kLanes), kind,
                  best, ct + t * d * kLanes, panels + 2 * t * n * kLanes,
                  &groups[g]);
      }
    });
  }
  // Groups in index order, strict >: the full scan's winner.
  GroupArgmax all;
  for (size_t g = 0; g < group_count; ++g) {
    if (groups[g].winner) all.Offer(groups[g].winner->index,
                                    groups[g].winner->value);
    all.solved += groups[g].solved;
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.acquisition_candidates")->Increment(m);
    metrics->GetCounter("gp.acquisition_solved")->Increment(all.solved);
  }
  return all.winner;
}

void GaussianProcess::ScanGroup(const Matrix& candidates, size_t begin,
                                size_t end, AcquisitionKind kind, double best,
                                double* ct, double* panels,
                                GroupArgmax* group) const {
  const size_t n = xs_.size();
  double* panel = panels;
  double* pending = panels + n * kLanes;
  double mean[kLanes];
  double var[kLanes];
  size_t pending_index[kLanes];
  double pending_mean[kLanes];
  size_t kept = 0;
  // Solves the pending lanes, scores them exactly and raises the group's
  // best; dead lanes are zeroed so the solve stays finite.
  auto solve_pending = [&]() {
    for (size_t i = 0; i < n; ++i) {
      std::fill(pending + i * kLanes + kept, pending + (i + 1) * kLanes, 0.0);
    }
    PanelVariances(pending, var);
    for (size_t l = 0; l < kept; ++l) {
      group->Offer(pending_index[l],
                   AcquisitionValue(
                       kind, GpPrediction{pending_mean[l], var[l]}, best));
    }
    group->solved += kept;
    kept = 0;
  };
  for (size_t c0 = begin; c0 < end; c0 += kLanes) {
    const size_t w = std::min(kLanes, end - c0);
    PanelMeans(candidates, c0, w, ct, panel, mean);
    for (size_t c = 0; c < w; ++c) {
      // A lane whose bound cannot reach the best so far cannot win, nor tie
      // an earlier winner; every other lane is solved.
      const double best_so_far = group->winner
                                     ? group->winner->value
                                     : -std::numeric_limits<double>::infinity();
      if (!(AcquisitionBound(kind, mean[c], SelfKernel(), best) >=
            best_so_far)) {
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        pending[i * kLanes + kept] = panel[i * kLanes + c];
      }
      pending_index[kept] = c0 + c;
      pending_mean[kept] = mean[c];
      if (++kept == kLanes) solve_pending();
    }
  }
  if (kept > 0) solve_pending();
}

void GaussianProcess::PanelMeans(const Matrix& candidates, size_t c0,
                                 size_t w, double* ct, double* panel,
                                 double* mean) const {
  const size_t n = xs_.size();
  const size_t d = clamped_ls_.size();
  // Transpose the candidate chunk to d x kLanes so the distance pass loads
  // lanes contiguously; dead lanes repeat the last real candidate (finite
  // arithmetic, results discarded).
  for (size_t j = 0; j < d; ++j) {
    double* cj = ct + j * kLanes;
    for (size_t c = 0; c < kLanes; ++c) {
      cj[c] = candidates.At(c0 + (c < w ? c : w - 1), j);
    }
  }
  // Kernel-row panel: panel[i][c] = k(candidate c, x_i), from training row
  // i against the chunk's lanes. Per (i, c) the accumulation order and the
  // tail are exactly KernelRow's (the subtraction's sign does not reach the
  // square), so each lane matches Predict bit for bit.
  internal::SquaredDistances(xs_flat_.data(), n, ct, kLanes, kLanes, d,
                             clamped_ls_.data(), inv_ls_.data(),
                             ExactQuotientFor(ct, d * kLanes), panel);
  internal::KernelTailInPlace(
      panel, n * kLanes, params_.kernel == KernelType::kSquaredExponential,
      params_.signal_variance, internal::ExpV4Available());
  // Ascending i, the same order as Dot(kstar, alpha_).
  double acc[kLanes] = {};
  SumLanes(panel, n, [&](V2 k, size_t i) { return k * alpha_[i]; }, acc);
  for (size_t c = 0; c < kLanes; ++c) mean[c] = y_mean_ + acc[c];
}

void GaussianProcess::PanelVariances(double* panel, double* var) const {
  internal::ForwardSolvePanel(chol_, panel, kLanes);
  double acc[kLanes] = {};
  SumLanes(panel, xs_.size(), [](V2 v, size_t) { return v * v; }, acc);
  for (size_t c = 0; c < kLanes; ++c) {
    var[c] = std::max(SelfKernel() - acc[c], 0.0);
  }
}

}  // namespace atune
