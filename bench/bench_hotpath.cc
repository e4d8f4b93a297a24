// E17 — hot-path speed layer (DESIGN.md §11): the blocked math kernels,
// the GP tuners' pruned acquisition scan, the zero-allocation commit path,
// and mmap journal replay must be *faster* and *bit-identical* to the
// scalar paths they replaced. This harness is the acceptance gate:
//
//   * kernels: ns/op for Cholesky at n in {64, 300}, fast (blocked) vs
//     scalar (reference) via the runtime A/B switch; gate >= 2x at n=300.
//   * argmax: the scan the GP tuners run, ArgmaxAcquisition's bound-pruned
//     EI scan over 1500 candidates and a 300-point GP vs its scalar half
//     (one Predict per row), both on one thread; gate >= 3x, with the
//     winner's index and value bitwise equal.
//   * exact_quotient: the acquisition scan's distance pass (200 training
//     rows against 2000 candidates in 16-lane chunks, d = 12), the
//     exact-quotient FMA body vs the divide body on the same inputs; every
//     output bitwise equal, and gate >= 1.5x where the host has AVX2 and
//     FMA (elsewhere reported as skipped). The FMA body slows more than the
//     divide under load on the other cores, so the line records the host's
//     /proc/loadavg at its start; it needs an otherwise idle host.
//   * kernel_tail: the GP kernel tail over 400 k squared distances at
//     d = 12 (zero and far ones included, which take libm's exp), both
//     kernels, the ExpV4 body vs the libm body; every output bitwise
//     equal, and gate >= 2x where the ExpV4 body runs (elsewhere reported
//     as skipped).
//   * rng: iTuned's candidate draw (2000 rows of 12 values, every third
//     row a clamped normal perturbation, the rest uniform) through Rng and
//     through std::mt19937_64 with a fresh std distribution per call (the
//     code Rng replaced), from one seed; every value bitwise equal, and
//     gate >= 2x.
//   * alloc: steady-state Evaluator commits (journal on, tracing/metrics
//     off, default policy) must report last_commit_allocs() == 0. This
//     binary links the counting operator-new override, so zero is meaningful.
//   * replay: journal recovery MB/s, mmap vs forced streaming, identical
//     records in every mode including the ATUNE_JOURNAL_NO_MMAP env
//     fallback.
//   * identity: whole-registry tuning sessions — serial, batched p=8,
//     kill/resume, and batched p=8 on a faulty DBMS (FaultProfile rate 0.15,
//     3600 s watchdog, 3.5 MAD outlier threshold, so lane repairs run) —
//     run under fast and scalar kernels must produce equal OutcomeChecksums,
//     structural trace trees, and journal file bytes. Each leg also prints a
//     `fingerprint` line (outcome checksum, FNV-1a of the journal bytes and
//     of the structural tree) that is stable across builds: diffing those
//     lines between two commits shows whether a refactor changed any
//     session's bytes, which the in-build fast-vs-scalar gate cannot see.
//
// Results go to console + BENCH_hotpath.json. Kernel/argmax problem
// sizes and the session budget are constant under ATUNE_SMOKE (they are
// cheap, and budget 14 is what lets the faulted leg reach the watchdog and
// re-measurement); only timing reps and the replay record count shrink. The
// identity/alloc/replay flags gate even at smoke scale
// via tools/run_checks.sh --hotpath (correctness, not paper-scale numbers);
// the speedup gates use the binary's own exit code (advisory under smoke).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/alloc_hook.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "math/matrix.h"
#include "ml/gaussian_process.h"
#include "obs/trace.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/fault_injector.h"
#include "tuners/builtin.h"

#ifndef ATUNE_BUILD_FLAGS
#define ATUNE_BUILD_FLAGS "(unknown)"
#endif

namespace atune {
namespace bench {
namespace {

const size_t kBudget = 14;
const uint64_t kSeed = 5;
const int kTimingReps = SmokeMode() ? 3 : 7;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Optimizer sink: accumulating results here keeps timed kernels live.
double g_sink = 0.0;

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix g(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) g.At(i, j) = rng->Uniform() * 2.0 - 1.0;
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) acc += g.At(i, k) * g.At(j, k);
      a.At(i, j) = acc;
    }
    a.At(i, i) += 2.0 + static_cast<double>(n);
  }
  return a;
}

// ---- section 1: blocked kernel timings ------------------------------------

struct KernelTiming {
  size_t n = 0;
  double fast_ns = 0.0;
  double scalar_ns = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

KernelTiming TimeCholesky(size_t n) {
  Rng rng(kSeed + n);
  Matrix a = RandomSpd(n, &rng);
  KernelTiming t;
  t.n = n;
  double best_fast = std::numeric_limits<double>::infinity();
  double best_scalar = best_fast;
  Matrix fast_factor(0, 0);
  Matrix scalar_factor(0, 0);
  // Alternate sides each rep so cache warmth doesn't favor one of them.
  for (int rep = 0; rep < kTimingReps; ++rep) {
    for (bool scalar : {false, true}) {
      SetScalarKernelsForTesting(scalar);
      uint64_t t0 = NowNs();
      auto l = a.Cholesky();
      uint64_t dt = NowNs() - t0;
      SetScalarKernelsForTesting(false);
      if (!l.ok()) return t;
      g_sink += l->At(n - 1, n - 1);
      if (scalar) {
        best_scalar = std::min(best_scalar, static_cast<double>(dt));
        scalar_factor = *std::move(l);
      } else {
        best_fast = std::min(best_fast, static_cast<double>(dt));
        fast_factor = *std::move(l);
      }
    }
  }
  t.fast_ns = best_fast;
  t.scalar_ns = best_scalar;
  t.speedup = best_scalar / best_fast;
  t.identical =
      fast_factor.rows() == scalar_factor.rows() &&
      std::memcmp(fast_factor.data().data(), scalar_factor.data().data(),
                  fast_factor.data().size() * sizeof(double)) == 0;
  return t;
}

// ---- section 2: the tuners' pruned scan ----------------------------------

/// The argmax line's problem: a Matérn GP fitted to 300 uniform 8-D
/// points, 1500 uniform candidates, and the best target as EI's incumbent.
struct AcquisitionProblem {
  size_t n = 300;
  size_t m = 1500;
  GaussianProcess gp{GpHyperParams{KernelType::kMatern52, {}, 1.0, 1e-4}};
  Matrix cands;
  double best = 0.0;
  bool fitted = false;
};

AcquisitionProblem MakeAcquisitionProblem() {
  const size_t d = 8;
  AcquisitionProblem p;
  Rng rng(kSeed + 17);
  std::vector<Vec> xs(p.n, Vec(d));
  Vec ys(p.n);
  for (size_t i = 0; i < p.n; ++i) {
    for (double& v : xs[i]) v = rng.Uniform();
    ys[i] = rng.Uniform() * 4.0 - 2.0;
  }
  p.fitted = p.gp.Fit(xs, ys).ok();
  p.cands = Matrix(p.m, d);
  for (size_t r = 0; r < p.m; ++r) {
    for (size_t j = 0; j < d; ++j) p.cands.At(r, j) = rng.Uniform();
  }
  p.best = *std::min_element(ys.begin(), ys.end());
  return p;
}

struct ArgmaxTiming {
  size_t n = 0;
  size_t m = 0;
  double scalar_ns = 0.0;
  double pruned_ns = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
  bool pass() const { return bitwise_match && speedup >= 3.0; }
};

/// ArgmaxAcquisition's EI scan, as iTuned and OtterTune run it, against
/// its scalar half (SetScalarKernelsForTesting: one Predict per row), with
/// no pool, so both run on this thread. Each side runs once before the
/// timed reps.
ArgmaxTiming TimeArgmax(const AcquisitionProblem& p) {
  ArgmaxTiming t;
  t.n = p.n;
  t.m = p.m;
  if (!p.fitted) return t;
  std::optional<AcquisitionArgmax> won[2];
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int rep = -1; rep < kTimingReps; ++rep) {
    for (int scalar = 0; scalar < 2; ++scalar) {
      SetScalarKernelsForTesting(scalar == 1);
      uint64_t t0 = NowNs();
      won[scalar] = p.gp.ArgmaxAcquisition(
          p.cands, AcquisitionKind::kExpectedImprovement, p.best);
      const double dt = static_cast<double>(NowNs() - t0);
      SetScalarKernelsForTesting(false);
      if (rep >= 0) best[scalar] = std::min(best[scalar], dt);
      if (won[scalar]) g_sink += won[scalar]->value;
    }
  }
  t.pruned_ns = best[0];
  t.scalar_ns = best[1];
  t.speedup = best[1] / best[0];
  t.bitwise_match = won[0] && won[1] && won[0]->index == won[1]->index &&
                    std::memcmp(&won[0]->value, &won[1]->value,
                                sizeof(double)) == 0;
  return t;
}

// ---- section 2b: exact-quotient distance pass ----------------------------

struct QuotientTiming {
  size_t n = 0;
  size_t m = 0;
  size_t d = 0;
  bool skipped = true;  // the host has no AVX2 and FMA
  double divide_ns = 0.0;
  double fma_ns = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
  std::string loadavg;  // /proc/loadavg's 1, 5 and 15 min loads at the start
  bool pass() const { return bitwise_match && (skipped || speedup >= 1.5); }
};

/// The host's 1, 5 and 15 minute load averages, or "unknown" where
/// /proc/loadavg cannot be read.
std::string LoadAverage() {
  std::string text;
  if (!ReadFileToString("/proc/loadavg", &text).ok()) return "unknown";
  std::istringstream in(text);
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "unknown";
  return one + " " + five + " " + fifteen;
}

/// The distance pass of one acquisition scan at gp-serial's largest sizes:
/// each 16-candidate chunk (transposed, as ArgmaxAcquisition lays it out)
/// against every training row, once by the divide body and once by the
/// exact-quotient body. Each body runs once before the timed reps, so lazy
/// set-up and a cold host do not land on one side.
QuotientTiming TimeExactQuotient() {
  const size_t n = 200, d = 12, m = 2000, kLanes = 16;
  const size_t chunks = m / kLanes;
  QuotientTiming t;
  t.loadavg = LoadAverage();
  t.n = n;
  t.m = m;
  t.d = d;
  t.skipped = !internal::FmaAvailable();
  Rng rng(kSeed + 29);
  std::vector<double> xs(n * d), ct(chunks * d * kLanes), ls(d), inv(d);
  for (double& v : xs) v = rng.Uniform();
  for (double& v : ct) v = rng.Uniform();
  for (size_t j = 0; j < d; ++j) {
    ls[j] = std::exp(rng.Uniform(std::log(0.05), std::log(2.0)));
    inv[j] = 1.0 / ls[j];
  }
  std::vector<double> out[2];
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int rep = -1; rep < kTimingReps; ++rep) {
    for (int exact = 0; exact < (t.skipped ? 1 : 2); ++exact) {
      out[exact].assign(chunks * n * kLanes, 0.0);
      uint64_t t0 = NowNs();
      for (size_t c = 0; c < chunks; ++c) {
        internal::SquaredDistances(xs.data(), n, ct.data() + c * d * kLanes,
                                   kLanes, kLanes, d, ls.data(), inv.data(),
                                   exact == 1,
                                   out[exact].data() + c * n * kLanes);
      }
      const double dt = static_cast<double>(NowNs() - t0);
      if (rep >= 0) best[exact] = std::min(best[exact], dt);
      g_sink += out[exact].back();
    }
  }
  t.divide_ns = best[0];
  if (t.skipped) {
    t.bitwise_match = true;
    return t;
  }
  t.fma_ns = best[1];
  t.speedup = best[0] / best[1];
  t.bitwise_match = std::memcmp(out[0].data(), out[1].data(),
                                out[0].size() * sizeof(double)) == 0;
  return t;
}

// ---- section 2c: the kernel tail's exp ------------------------------------

struct TailTiming {
  size_t m = 0;
  size_t d = 0;
  bool skipped = true;  // the ExpV4 body does not run on this host
  double libm_ns = 0.0;
  double fast_ns = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
  bool pass() const { return bitwise_match && (skipped || speedup >= 2.0); }
};

/// internal::KernelTailInPlace over the squared distances of random pairs
/// in the unit cube at hyper-search lengthscales, one in 64 of them zero
/// and one in 64 far (their exp arguments leave ExpV4's fast range and take
/// libm's exp), for the squared-exponential and the Matérn kernel, by the
/// libm body and the ExpV4 body. Each body runs once before the timed
/// reps, so lazy set-up and a cold host do not land on one side.
TailTiming TimeKernelTail() {
  const size_t m = 400000, d = 12;
  TailTiming t;
  t.m = m;
  t.d = d;
  t.skipped = !internal::ExpV4Available();
  Rng rng(kSeed + 31);
  std::vector<double> ls(d);
  for (double& l : ls) l = std::exp(rng.Uniform(std::log(0.05), std::log(2.0)));
  std::vector<double> sq(m);
  for (size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double q = (rng.Uniform() - rng.Uniform()) / ls[j];
      acc += q * q;
    }
    sq[i] = i % 64 == 0 ? 0.0 : i % 64 == 32 ? 1e6 : acc;
  }
  std::vector<double> out[2][2];
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int rep = -1; rep < kTimingReps; ++rep) {
    for (int fast = 0; fast < (t.skipped ? 1 : 2); ++fast) {
      double dt = 0.0;
      for (int se = 0; se < 2; ++se) {
        out[fast][se] = sq;
        uint64_t t0 = NowNs();
        internal::KernelTailInPlace(out[fast][se].data(), m, se == 1, 1.3,
                                    fast == 1);
        dt += static_cast<double>(NowNs() - t0);
        g_sink += out[fast][se][m - 1];
      }
      if (rep >= 0) best[fast] = std::min(best[fast], dt);
    }
  }
  t.libm_ns = best[0];
  if (t.skipped) {
    t.bitwise_match = true;
    return t;
  }
  t.fast_ns = best[1];
  t.speedup = best[0] / best[1];
  t.bitwise_match = true;
  for (int se = 0; se < 2; ++se) {
    t.bitwise_match = t.bitwise_match &&
                      std::memcmp(out[0][se].data(), out[1][se].data(),
                                  m * sizeof(double)) == 0;
  }
  return t;
}

// ---- section 2d: the candidate draw -----------------------------------------

struct RngTiming {
  size_t rows = 0;
  size_t dims = 0;
  double std_ns = 0.0;
  double rng_ns = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
  bool pass() const { return bitwise_match && speedup >= 2.0; }
};

/// Fills rows x dims values the way iTuned's DrawCandidates
/// (tuners/experiment/ituned.cc) does around an incumbent at 0.5: every
/// third row is clamp(0.5 + normal()) and the rest are uniform().
template <typename UniformDraw, typename NormalDraw>
void DrawLikeItuned(size_t rows, size_t dims, UniformDraw uniform,
                    NormalDraw normal, double* out) {
  for (size_t i = 0; i < rows; ++i) {
    for (size_t d = 0; d < dims; ++d, ++out) {
      *out = i % 3 != 0 ? uniform() : std::clamp(0.5 + normal(), 0.0, 1.0);
    }
  }
}

/// The candidate draw through Rng and through std::mt19937_64 with a fresh
/// std distribution per call (the code Rng replaced), both seeded alike
/// and outside the timed region. Each side runs once before the timed
/// reps, so a cold host does not land on one side. A draw takes under a
/// millisecond, so even under smoke the line keeps each side's best of at
/// least 25 reps spread over at least 0.3 s: on a shared host the draw's
/// throughput-bound Rng side loses more than the std side to other
/// tenants' load, and a window that long usually spans a quiet stretch.
RngTiming TimeRngDraw() {
  const size_t rows = 2000, dims = 12;
  const uint64_t seed = kSeed + 37;
  const int min_reps = 25;
  const uint64_t min_window_ns = 300000000;
  RngTiming t;
  t.rows = rows;
  t.dims = dims;
  std::vector<double> out[2];
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  const uint64_t start = NowNs();
  for (int rep = -1; rep < min_reps || NowNs() - start < min_window_ns;
       ++rep) {
    for (int fast = 0; fast < 2; ++fast) {
      out[fast].assign(rows * dims, 0.0);
      std::mt19937_64 gen(seed);
      Rng rng(seed);
      uint64_t t0 = NowNs();
      if (fast == 1) {
        DrawLikeItuned(
            rows, dims, [&] { return rng.Uniform(); },
            [&] { return rng.Normal(0.0, 0.08); }, out[fast].data());
      } else {
        DrawLikeItuned(
            rows, dims,
            [&] { return std::uniform_real_distribution<double>()(gen); },
            [&] { return std::normal_distribution<double>(0.0, 0.08)(gen); },
            out[fast].data());
      }
      const double dt = static_cast<double>(NowNs() - t0);
      if (rep >= 0) best[fast] = std::min(best[fast], dt);
      g_sink += out[fast].back();
    }
  }
  t.std_ns = best[0];
  t.rng_ns = best[1];
  t.speedup = best[0] / best[1];
  t.bitwise_match = std::memcmp(out[0].data(), out[1].data(),
                                out[0].size() * sizeof(double)) == 0;
  return t;
}

// ---- section 3: zero-allocation commit ------------------------------------

struct AllocCheck {
  bool hook_live = false;
  uint64_t max_steady_allocs = 0;
  bool pass = false;
};

AllocCheck CheckCommitAllocs() {
  AllocCheck out;
  {
    uint64_t before = SampleAllocCount();
    void* p = ::operator new(64);
    out.hook_live = SampleAllocCount() > before;
    ::operator delete(p);
  }
  auto dbms = MakeDbms(kSeed + 1);
  Evaluator evaluator(dbms.get(), MakeDbmsOlapWorkload(1.0),
                      TuningBudget{24});
  JournalHeader header;
  header.tuner_name = "hotpath-alloc";
  header.max_evaluations = 24;
  std::string path = "BENCH_hotpath_alloc.waljournal.tmp";
  auto journal = TrialJournal::Create(path, header);
  if (!journal.ok()) return out;
  (*journal)->set_sync(false);
  evaluator.set_journal(journal->get());
  Configuration config = dbms->space().DefaultConfiguration();
  // Warmup commits grow history slack and the journal frame buffer to their
  // high-water marks; steady state begins after them.
  for (int i = 0; i < 4; ++i) {
    if (!evaluator.Evaluate(config).ok()) return out;
  }
  bool all_zero = true;
  for (int i = 0; i < 12; ++i) {
    if (!evaluator.Evaluate(config).ok()) return out;
    out.max_steady_allocs =
        std::max(out.max_steady_allocs, evaluator.last_commit_allocs());
    if (evaluator.last_commit_allocs() != 0) all_zero = false;
  }
  std::remove(path.c_str());
  out.pass = out.hook_live && all_zero;
  return out;
}

// ---- section 4: journal replay throughput ---------------------------------

struct ReplayCheck {
  size_t records = 0;
  size_t bytes = 0;
  double mmap_mb_s = 0.0;
  double streaming_mb_s = 0.0;
  bool records_match = false;
  bool fallback_ok = false;
  bool pass = false;
};

uint64_t RecordsFingerprint(const std::vector<JournalRecord>& records) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const JournalRecord& r : records) {
    const std::string cfg = r.config.ToString();
    h = Fnv1a(h, cfg.data(), cfg.size());
    h = Fnv1a(h, &r.seq, sizeof(r.seq));
    h = Fnv1a(h, &r.objective, sizeof(r.objective));
    h = Fnv1a(h, &r.used, sizeof(r.used));
  }
  return h;
}

ReplayCheck CheckReplay() {
  ReplayCheck out;
  const size_t n_records = SmokeSize(4000, 600);
  std::string path = "BENCH_hotpath_replay.waljournal.tmp";
  {
    JournalHeader header;
    header.tuner_name = "hotpath-replay";
    header.max_evaluations = n_records;
    auto journal = TrialJournal::Create(path, header);
    if (!journal.ok()) return out;
    (*journal)->set_sync(false);
    for (size_t i = 0; i < n_records; ++i) {
      JournalRecord rec;
      rec.seq = i;
      rec.config.SetDouble("shared_buffers", 0.001 * static_cast<double>(i));
      rec.config.SetInt("max_connections", static_cast<int64_t>(i % 512));
      rec.config.SetString("wal_level", i % 2 == 0 ? "replica" : "logical");
      rec.result.runtime_seconds = 1.0 + 0.25 * static_cast<double>(i % 17);
      rec.result.metrics = {{"throughput", 1000.0 - static_cast<double>(i)}};
      rec.objective = rec.result.runtime_seconds;
      rec.cost = 1.0;
      rec.system_runs = i + 1;
      rec.used = static_cast<double>(i + 1);
      if (!(*journal)->Append(rec).ok()) return out;
    }
  }
  std::string file;
  if (!ReadFileToString(path, &file).ok()) return out;
  out.bytes = file.size();

  auto time_mode = [&](JournalReplayMode mode, uint64_t* fingerprint,
                       size_t* records) {
    SetJournalReplayModeForTesting(mode);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kTimingReps; ++rep) {
      uint64_t t0 = NowNs();
      auto recovered = TrialJournal::OpenForResume(path);
      uint64_t dt = NowNs() - t0;
      if (!recovered.ok()) return 0.0;
      best = std::min(best, static_cast<double>(dt));
      *fingerprint = RecordsFingerprint(recovered->records);
      *records = recovered->records.size();
    }
    SetJournalReplayModeForTesting(JournalReplayMode::kAuto);
    return static_cast<double>(out.bytes) / (best / 1e9) / 1e6;
  };

  uint64_t mmap_fp = 0, stream_fp = 0, env_fp = 0;
  size_t mmap_n = 0, stream_n = 0, env_n = 0;
  out.mmap_mb_s = time_mode(JournalReplayMode::kMmap, &mmap_fp, &mmap_n);
  out.streaming_mb_s =
      time_mode(JournalReplayMode::kStreaming, &stream_fp, &stream_n);
  // Env fallback: kAuto must degrade to streaming when the env var is set.
  ::setenv("ATUNE_JOURNAL_NO_MMAP", "1", 1);
  double env_mb_s = time_mode(JournalReplayMode::kAuto, &env_fp, &env_n);
  ::unsetenv("ATUNE_JOURNAL_NO_MMAP");
  out.records = mmap_n;
  out.records_match = mmap_n == n_records && stream_n == n_records &&
                      mmap_fp == stream_fp;
  out.fallback_ok = env_n == n_records && env_fp == mmap_fp && env_mb_s > 0.0;
  out.pass = out.records_match && out.fallback_ok && out.mmap_mb_s > 0.0;
  std::remove(path.c_str());
  return out;
}

// ---- section 5: whole-registry fast-vs-scalar identity --------------------

struct SessionResult {
  bool ok = false;
  uint64_t checksum = 0;
  std::string tree;
  std::string journal_bytes;
};

/// One identity leg: how a session is run before its fast and scalar
/// results are compared.
struct IdentityLeg {
  const char* name;
  size_t parallelism;
  uint64_t kill_after;  ///< > 0: kill after this many records, then resume
  bool faulted;         ///< faulty DBMS with watchdog and outlier repair
};

constexpr IdentityLeg kIdentityLegs[] = {
    {"serial", 1, 0, false},
    {"batched", 8, 0, false},
    {"kill_resume", 1, 3, false},
    {"faulted", 8, 0, true},
};
constexpr size_t kNumIdentityLegs = std::size(kIdentityLegs);

SessionResult RunIdentitySession(const std::string& tuner_name,
                                 const IdentityLeg& leg, bool scalar,
                                 const std::string& journal_path) {
  SessionResult out;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create(tuner_name);
  if (!tuner.ok()) return out;
  (*tuner)->set_parallelism(leg.parallelism);
  auto dbms = MakeDbms(kSeed + 1);
  FaultInjectingSystem faulty(dbms.get(), FaultProfile::FromRate(0.15));
  TunableSystem* system = dbms.get();
  const Workload workload = MakeDbmsOlapWorkload(1.0);

  SetScalarKernelsForTesting(scalar);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed + 100;
  options.measure_default = false;
  options.journal_path = journal_path;
  if (leg.faulted) {
    system = &faulty;
    options.robustness.timeout_seconds = 3600.0;
    options.robustness.outlier_mad_threshold = 3.5;
  }
  Tracer tracer;
  if (leg.kill_after > 0) {
    // Kill leg: journal the first `kill_after` records, then abort. The
    // outcome status is irrelevant; the resume leg below is what we compare.
    // Resume uses a freshly created tuner, as a real post-crash process
    // would — replay feeds the journal into pristine tuner state.
    options.interrupt_after_records = leg.kill_after;
    (void)RunTuningSession(tuner->get(), system, workload, options);
    auto fresh = registry.Create(tuner_name);
    if (!fresh.ok()) {
      SetScalarKernelsForTesting(false);
      return out;
    }
    (*fresh)->set_parallelism(leg.parallelism);
    options.interrupt_after_records = 0;
    options.tracer = &tracer;
    auto resumed =
        ResumeTuningSession(fresh->get(), system, workload, options);
    SetScalarKernelsForTesting(false);
    if (!resumed.ok()) return out;
    out.checksum = OutcomeChecksum(*resumed);
  } else {
    options.tracer = &tracer;
    auto outcome = RunTuningSession(tuner->get(), system, workload, options);
    SetScalarKernelsForTesting(false);
    if (!outcome.ok()) return out;
    out.checksum = OutcomeChecksum(*outcome);
  }
  out.tree = tracer.StructuralTreeString();
  (void)ReadFileToString(journal_path, &out.journal_bytes);
  std::remove(journal_path.c_str());
  out.ok = true;
  return out;
}

struct IdentityRow {
  std::string tuner;
  bool applicable = false;
  bool same[kNumIdentityLegs] = {};
  bool pass() const {
    return !applicable ||
           std::all_of(std::begin(same), std::end(same),
                       [](bool leg_same) { return leg_same; });
  }
};

bool SameSession(const SessionResult& a, const SessionResult& b,
                 const char* label) {
  bool same = a.ok && b.ok && a.checksum == b.checksum && a.tree == b.tree &&
              a.journal_bytes == b.journal_bytes;
  if (!same) {
    // Name the diverging component so a gate failure is actionable without
    // rerunning under a debugger.
    std::printf(
        "  MISMATCH %-28s ok=%d/%d checksum=%d tree=%d journal=%d "
        "(%zu vs %zu bytes)\n",
        label, a.ok, b.ok, a.checksum == b.checksum, a.tree == b.tree,
        a.journal_bytes == b.journal_bytes, a.journal_bytes.size(),
        b.journal_bytes.size());
  }
  return same;
}

/// Prints the leg's build-independent fingerprint line (see the header).
void PrintFingerprint(const std::string& tuner, const char* leg,
                      const SessionResult& r) {
  std::printf(
      "  fingerprint %-24s %-11s ok=%d checksum=%016llx journal=%016llx "
      "tree=%016llx\n",
      tuner.c_str(), leg, r.ok, static_cast<unsigned long long>(r.checksum),
      static_cast<unsigned long long>(Fnv1a(
          kFnvOffsetBasis, r.journal_bytes.data(), r.journal_bytes.size())),
      static_cast<unsigned long long>(
          Fnv1a(kFnvOffsetBasis, r.tree.data(), r.tree.size())));
}

std::vector<IdentityRow> RunIdentityMatrix() {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  std::vector<IdentityRow> rows;
  const std::string path = "BENCH_hotpath_identity.waljournal.tmp";
  for (const std::string& name : registry.Names()) {
    IdentityRow row;
    row.tuner = name;
    for (size_t i = 0; i < kNumIdentityLegs; ++i) {
      const IdentityLeg& leg = kIdentityLegs[i];
      SessionResult fast = RunIdentitySession(name, leg, false, path);
      // Tuners that cannot drive the DBMS under this budget (wrong system
      // kind, degenerate model) fail identically in both modes; the serial
      // leg decides applicability and the others are skipped.
      if (i == 0) row.applicable = fast.ok;
      if (!row.applicable) break;
      PrintFingerprint(name, leg.name, fast);
      row.same[i] =
          SameSession(fast, RunIdentitySession(name, leg, true, path), leg.name);
    }
    std::printf("  %-24s %s serial=%d batched=%d kill_resume=%d faulted=%d\n",
                name.c_str(), row.applicable ? "ok " : "n/a", row.same[0],
                row.same[1], row.same[2], row.same[3]);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int Main() {
  PrintHeader("E17 hot-path speed layer",
              "the paper's iterative-tuning inner loop at interactive speed",
              "blocked kernels, pruned acquisition, zero-alloc commit, "
              "mmap replay — speed with bit-identity");

  std::printf("== kernels: blocked Cholesky vs scalar reference ==\n");
  std::vector<KernelTiming> kernels;
  for (size_t n : {size_t{64}, size_t{300}}) {
    KernelTiming t = TimeCholesky(n);
    kernels.push_back(t);
    std::printf("  n=%-4zu fast %8.0f ns  scalar %8.0f ns  speedup %.2fx  "
                "identical=%d\n",
                t.n, t.fast_ns, t.scalar_ns, t.speedup, t.identical);
  }
  bool cholesky_pass = kernels.back().speedup >= 2.0 &&
                       kernels.front().identical && kernels.back().identical;

  std::printf("== argmax: the tuners' pruned EI scan vs its scalar half ==\n");
  ArgmaxTiming argmax = TimeArgmax(MakeAcquisitionProblem());
  std::printf("  scalar %.0f ns  pruned %.0f ns  speedup %.2fx  bitwise=%d\n",
              argmax.scalar_ns, argmax.pruned_ns, argmax.speedup,
              argmax.bitwise_match);

  std::printf("== exact_quotient: distance pass, FMA body vs divide body ==\n");
  QuotientTiming quot = TimeExactQuotient();
  if (quot.skipped) {
    std::printf("  divide %.0f ns  fma skipped (no AVX2 and FMA)\n",
                quot.divide_ns);
  } else {
    std::printf("  divide %.0f ns  fma %.0f ns  speedup %.2fx  bitwise=%d  "
                "loadavg %s\n",
                quot.divide_ns, quot.fma_ns, quot.speedup, quot.bitwise_match,
                quot.loadavg.c_str());
  }

  std::printf("== kernel_tail: GP kernel tail, ExpV4 body vs libm body ==\n");
  TailTiming tail = TimeKernelTail();
  if (tail.skipped) {
    std::printf("  libm %.0f ns  expv4 skipped (no AVX2 and FMA, or libm "
                "differs)\n",
                tail.libm_ns);
  } else {
    std::printf("  libm %.0f ns  expv4 %.0f ns  speedup %.2fx  bitwise=%d\n",
                tail.libm_ns, tail.fast_ns, tail.speedup, tail.bitwise_match);
  }

  std::printf("== rng: iTuned's candidate draw, Rng vs the std engine ==\n");
  RngTiming draw = TimeRngDraw();
  std::printf("  std %.0f ns  rng %.0f ns  speedup %.2fx  bitwise=%d\n",
              draw.std_ns, draw.rng_ns, draw.speedup, draw.bitwise_match);

  std::printf("== alloc: steady-state commit allocations ==\n");
  AllocCheck alloc = CheckCommitAllocs();
  std::printf("  hook_live=%d max_steady_allocs=%llu pass=%d\n",
              alloc.hook_live,
              static_cast<unsigned long long>(alloc.max_steady_allocs),
              alloc.pass);

  std::printf("== replay: journal recovery throughput ==\n");
  ReplayCheck replay = CheckReplay();
  std::printf("  %zu records (%zu bytes): mmap %.1f MB/s, streaming %.1f "
              "MB/s, records_match=%d fallback_ok=%d\n",
              replay.records, replay.bytes, replay.mmap_mb_s,
              replay.streaming_mb_s, replay.records_match, replay.fallback_ok);

  std::printf("== identity: whole-registry fast vs scalar sessions ==\n");
  std::vector<IdentityRow> identity = RunIdentityMatrix();
  bool identity_pass = true;
  size_t applicable = 0;
  for (const IdentityRow& row : identity) {
    if (row.applicable) ++applicable;
    identity_pass = identity_pass && row.pass();
  }
  identity_pass = identity_pass && applicable > 0;

  bool all_pass = cholesky_pass && argmax.pass() && quot.pass() &&
                  tail.pass() && draw.pass() && identity_pass && alloc.pass &&
                  replay.pass;

  std::ostringstream json;
  json << "{\n  \"experiment\": \"E17_hotpath\",\n";
  json << StrFormat("  \"smoke\": %s,\n", SmokeMode() ? "true" : "false");
  json << "  \"build_flags\": \"" << ATUNE_BUILD_FLAGS << "\",\n";
  json << "  \"kernels\": [\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& t = kernels[i];
    json << StrFormat(
        "    {\"kernel\": \"cholesky\", \"n\": %zu, \"fast_ns\": %.0f, "
        "\"scalar_ns\": %.0f, \"speedup\": %.3f, \"identical\": %s}%s\n",
        t.n, t.fast_ns, t.scalar_ns, t.speedup,
        t.identical ? "true" : "false", i + 1 < kernels.size() ? "," : "");
  }
  json << "  ],\n";
  json << StrFormat(
      "  \"argmax\": {\"n\": %zu, \"m\": %zu, \"scalar_ns\": %.0f, "
      "\"pruned_ns\": %.0f, \"speedup\": %.3f, \"bitwise_match\": %s},\n",
      argmax.n, argmax.m, argmax.scalar_ns, argmax.pruned_ns, argmax.speedup,
      argmax.bitwise_match ? "true" : "false");
  json << StrFormat(
      "  \"exact_quotient\": {\"n\": %zu, \"m\": %zu, \"d\": %zu, "
      "\"skipped\": %s, \"divide_ns\": %.0f, \"fma_ns\": %.0f, "
      "\"speedup\": %.3f, \"bitwise_match\": %s, \"loadavg\": \"%s\"},\n",
      quot.n, quot.m, quot.d, quot.skipped ? "true" : "false",
      quot.divide_ns, quot.fma_ns, quot.speedup,
      quot.bitwise_match ? "true" : "false", quot.loadavg.c_str());
  json << StrFormat(
      "  \"kernel_tail\": {\"m\": %zu, \"d\": %zu, \"skipped\": %s, "
      "\"libm_ns\": %.0f, \"expv4_ns\": %.0f, \"speedup\": %.3f, "
      "\"bitwise_match\": %s},\n",
      tail.m, tail.d, tail.skipped ? "true" : "false", tail.libm_ns,
      tail.fast_ns, tail.speedup, tail.bitwise_match ? "true" : "false");
  json << StrFormat(
      "  \"rng\": {\"rows\": %zu, \"dims\": %zu, \"std_ns\": %.0f, "
      "\"rng_ns\": %.0f, \"speedup\": %.3f, \"bitwise_match\": %s},\n",
      draw.rows, draw.dims, draw.std_ns, draw.rng_ns, draw.speedup,
      draw.bitwise_match ? "true" : "false");
  json << StrFormat(
      "  \"alloc\": {\"hook_live\": %s, \"max_steady_allocs\": %llu},\n",
      alloc.hook_live ? "true" : "false",
      static_cast<unsigned long long>(alloc.max_steady_allocs));
  json << StrFormat(
      "  \"replay\": {\"records\": %zu, \"bytes\": %zu, \"mmap_mb_s\": %.1f, "
      "\"streaming_mb_s\": %.1f, \"records_match\": %s, \"fallback_ok\": "
      "%s},\n",
      replay.records, replay.bytes, replay.mmap_mb_s, replay.streaming_mb_s,
      replay.records_match ? "true" : "false",
      replay.fallback_ok ? "true" : "false");
  json << "  \"identity\": [\n";
  for (size_t i = 0; i < identity.size(); ++i) {
    const IdentityRow& row = identity[i];
    json << StrFormat(
        "    {\"tuner\": \"%s\", \"applicable\": %s, \"serial\": %s, "
        "\"batched\": %s, \"kill_resume\": %s, \"faulted\": %s}%s\n",
        row.tuner.c_str(), row.applicable ? "true" : "false",
        row.same[0] ? "true" : "false", row.same[1] ? "true" : "false",
        row.same[2] ? "true" : "false", row.same[3] ? "true" : "false",
        i + 1 < identity.size() ? "," : "");
  }
  json << "  ],\n";
  json << StrFormat(
      "  \"pass\": {\"cholesky\": %s, \"argmax\": %s, "
      "\"exact_quotient\": %s, \"kernel_tail\": %s, \"rng\": %s, "
      "\"identity\": %s, \"alloc\": %s, \"replay\": %s}\n}\n",
      cholesky_pass ? "true" : "false",
      argmax.pass() ? "true" : "false", quot.pass() ? "true" : "false",
      tail.pass() ? "true" : "false", draw.pass() ? "true" : "false",
      identity_pass ? "true" : "false",
      alloc.pass ? "true" : "false", replay.pass ? "true" : "false");
  if (AtomicWriteFile("BENCH_hotpath.json", json.str()).ok()) {
    std::printf("wrote BENCH_hotpath.json\n");
  }

  std::printf("hotpath gates: cholesky=%d argmax=%d exact_quotient=%d "
              "kernel_tail=%d rng=%d identity=%d alloc=%d replay=%d\n",
              cholesky_pass, argmax.pass(), quot.pass(), tail.pass(),
              draw.pass(), identity_pass, alloc.pass, replay.pass);
  if (g_sink == 12345.6789) std::printf("(sink)\n");
  return AcceptanceExit(all_pass);
}

}  // namespace bench
}  // namespace atune

int main() { return atune::bench::Main(); }
