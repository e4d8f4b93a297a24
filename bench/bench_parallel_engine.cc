// E12 — parallel experiment engine: iTuned §2.4 runs k experiments per
// wall-clock round instead of 1, so a tuning session that spends the same
// budget finishes in ~1/k of the wall-clock time. This harness sweeps the
// four experiment-driven tuners over 8 seeds at parallelism 1/2/4/8 and
// reports:
//
//   * modeled experiment wall-clock: sum over rounds of the round's longest
//     simulated run — the quantity the paper's parallel experiments shrink.
//     (Experiments dominate real campaigns; this figure is deterministic
//     and independent of the host's core count.)
//   * real host wall-clock of the harness itself (thread-pool overhead view;
//     on a single-core host this hovers near 1x by construction),
//   * a bitwise equivalence check: FNV-1a checksum of every parallel trial
//     history against a serial re-execution of the same configurations,
//     plus serial-tuner vs batch-tuner history equality for the baselines,
//   * GP refit cost, full Fit() vs incremental AddObservation(), at
//     n = 30/100/300 observations.
//
// Results are emitted both as console text and as machine-readable JSON in
// BENCH_parallel_engine.json (for CI tracking).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/session.h"
#include "ml/gaussian_process.h"
#include "systems/dbms/dbms_workloads.h"
#include "tuners/experiment/ituned.h"
#include "tuners/experiment/search_baselines.h"

namespace atune {
namespace bench {
namespace {

const size_t kSeeds = SmokeSize(8, 2);
const size_t kBudget = SmokeSize(25, 6);
const size_t kParallelisms[] = {1, 2, 4, 8};

std::unique_ptr<Tuner> MakeTuner(const std::string& name) {
  if (name == "random-search") return std::make_unique<RandomSearchTuner>();
  if (name == "grid-search") return std::make_unique<GridSearchTuner>();
  if (name == "recursive-random") {
    return std::make_unique<RecursiveRandomSearchTuner>();
  }
  ITunedOptions options;
  options.acquisition_candidates = 500;  // keep the 128-session sweep quick
  return std::make_unique<ITunedTuner>(options);
}

// Fnv1a / HistoryChecksum live in core/outcome_checksum.h, shared with
// bench_robustness's bit-identity checks.

/// Re-executes the history's configurations serially, in order, on a fresh
/// system with the same seed, and checksums the resulting trials. Per-run
/// noise is derived from the run index (DeriveSeed), so this must reproduce
/// the parallel engine's results bit for bit.
uint64_t SerialReplayChecksum(uint64_t system_seed,
                              const std::vector<Trial>& history,
                              const Workload& workload) {
  auto system = MakeDbms(system_seed);
  Evaluator evaluator(system.get(), workload, TuningBudget{history.size()});
  for (const Trial& t : history) {
    auto obj = evaluator.Evaluate(t.config);
    if (!obj.ok()) return 0;  // replay must not fail; 0 breaks the compare
  }
  return HistoryChecksum(evaluator.history());
}

/// Modeled experiment wall-clock: each round's experiments run concurrently,
/// so a round lasts as long as its slowest run; the campaign lasts the sum
/// of rounds.
double ModeledWallClock(const std::vector<Trial>& history) {
  std::map<size_t, double> round_max;
  for (const Trial& t : history) {
    double& m = round_max[t.round];
    m = std::max(m, t.result.runtime_seconds);
  }
  double total = 0.0;
  for (const auto& [round, mx] : round_max) total += mx;
  return total;
}

struct CellResult {
  double modeled_wallclock = 0.0;  // summed over seeds
  double real_seconds = 0.0;       // host time, summed over seeds
  double mean_best = 0.0;
  uint64_t checksum = 0;           // combined over seeds
  bool replay_ok = true;
};

CellResult RunCell(const std::string& tuner_name, size_t parallelism,
                   ThreadPool* pool) {
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  struct SeedResult {
    double modeled, real_seconds, best;
    uint64_t checksum;
    bool replay_ok;
  };
  std::vector<SeedResult> per_seed =
      RunSeedReplicates(kSeeds, pool, [&](uint64_t seed) -> SeedResult {
        auto system = MakeDbms(seed + 1);
        std::unique_ptr<Tuner> tuner = MakeTuner(tuner_name);
        tuner->set_parallelism(parallelism);
        SessionOptions options;
        options.budget = TuningBudget{kBudget};
        options.seed = seed + 100;
        options.measure_default = false;
        auto t0 = std::chrono::steady_clock::now();
        auto outcome =
            RunTuningSession(tuner.get(), system.get(), workload, options);
        auto t1 = std::chrono::steady_clock::now();
        if (!outcome.ok()) return {0, 0, 0, 0, false};
        uint64_t checksum = HistoryChecksum(outcome->history);
        uint64_t replay =
            SerialReplayChecksum(seed + 1, outcome->history, workload);
        return {ModeledWallClock(outcome->history),
                std::chrono::duration<double>(t1 - t0).count(),
                outcome->best_objective, checksum, checksum == replay};
      });
  CellResult cell;
  uint64_t combined = 0xcbf29ce484222325ULL;
  for (const SeedResult& r : per_seed) {
    cell.modeled_wallclock += r.modeled;
    cell.real_seconds += r.real_seconds;
    cell.mean_best += r.best / static_cast<double>(kSeeds);
    combined = Fnv1a(combined, &r.checksum, sizeof(r.checksum));
    cell.replay_ok = cell.replay_ok && r.replay_ok;
  }
  cell.checksum = combined;
  return cell;
}

/// Median-of-reps timer (seconds).
template <typename Fn>
double TimeMedian(size_t reps, Fn fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct GpTiming {
  size_t n;
  double full_ms;
  double incremental_ms;
  double ratio;
};

/// E15 — observability overhead: the same serial iTuned session run
/// untraced and then with the full tracing+metrics stack attached. The
/// budgeted claim (EXPERIMENTS.md E15) is that the host-time cost of
/// tracing stays under 2% of the MODELED experiment wall-clock — the
/// quantity a real campaign is made of — so instrumentation is effectively
/// free next to even one real experiment.
struct ObsOverhead {
  double untraced_host_s = 0.0;   // median host seconds per session
  double traced_host_s = 0.0;
  double modeled_wallclock_s = 0.0;
  double overhead_pct = 0.0;      // host delta / modeled wall-clock * 100
  size_t spans = 0;               // spans per traced session
  MetricsSnapshot metrics;        // registry snapshot of the traced run
};

ObsOverhead MeasureObservabilityOverhead() {
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  ObsOverhead out;
  const size_t reps = SmokeSize(5, 3);
  auto run_session = [&](Tracer* tracer, MetricsRegistry* metrics) {
    auto system = MakeDbms(1234);
    std::unique_ptr<Tuner> tuner = MakeTuner("ituned");
    SessionOptions options;
    options.budget = TuningBudget{kBudget};
    options.seed = 7;
    options.measure_default = false;
    options.tracer = tracer;
    options.metrics = metrics;
    auto outcome = RunTuningSession(tuner.get(), system.get(), workload,
                                    options);
    if (outcome.ok()) {
      out.modeled_wallclock_s = ModeledWallClock(outcome->history);
    }
  };
  out.untraced_host_s =
      TimeMedian(reps, [&] { run_session(nullptr, nullptr); });
  // Fresh tracer/registry per rep (construction is part of the measured
  // cost); the last rep's snapshot is published.
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<MetricsRegistry> metrics;
  out.traced_host_s = TimeMedian(reps, [&] {
    tracer = std::make_unique<Tracer>();
    metrics = std::make_unique<MetricsRegistry>();
    run_session(tracer.get(), metrics.get());
  });
  out.spans = tracer->span_count();
  out.metrics = metrics->Snapshot();
  out.overhead_pct = 100.0 * (out.traced_host_s - out.untraced_host_s) /
                     std::max(out.modeled_wallclock_s, 1e-9);
  return out;
}

GpTiming TimeGpRefit(size_t n) {
  // Smooth synthetic response over [0,1]^5 — representative of the log
  // objectives the tuners model.
  const size_t dims = 5;
  Rng rng(42);
  std::vector<Vec> xs(n, Vec(dims));
  Vec ys(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      xs[i][d] = rng.Uniform();
      acc += std::sin(3.0 * xs[i][d]) * (1.0 + static_cast<double>(d) * 0.3);
    }
    ys[i] = acc + rng.Normal(0.0, 0.05);
  }
  GpHyperParams params;
  params.lengthscales.assign(dims, 0.4);

  std::vector<Vec> head(xs.begin(), xs.end() - 1);
  Vec head_y(ys.begin(), ys.end() - 1);

  GpTiming out;
  out.n = n;
  out.full_ms = 1e3 * TimeMedian(5, [&] {
    GaussianProcess gp(params);
    (void)gp.Fit(xs, ys);
  });
  // The BO hot path: a model of n-1 points absorbs the n-th observation.
  // Each rep re-fits the n-1 point model outside the timed region.
  {
    std::vector<double> times;
    for (size_t rep = 0; rep < 5; ++rep) {
      GaussianProcess gp(params);
      (void)gp.Fit(head, head_y);
      auto t0 = std::chrono::steady_clock::now();
      (void)gp.AddObservation(xs.back(), ys.back());
      auto t1 = std::chrono::steady_clock::now();
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(times.begin(), times.end());
    out.incremental_ms = 1e3 * times[times.size() / 2];
  }
  out.ratio = out.full_ms / std::max(out.incremental_ms, 1e-9);
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace atune

int main() {
  using namespace atune;
  using namespace atune::bench;

  PrintHeader("E12: bench_parallel_engine",
              "iTuned §2.4 parallel experiments + incremental GP refits",
              "4 tuners x 8 seeds at parallelism 1/2/4/8; bitwise "
              "serial-equivalence; GP full vs incremental refit timing.");

  const std::vector<std::string> tuner_names = {
      "random-search", "grid-search", "recursive-random", "ituned"};

  // The seed replicates themselves run on a small pool (bench_common's
  // RunSeedReplicates) — each session owns its system/evaluator/rng, so
  // pooling the sweep cannot change any result.
  ThreadPool sweep_pool(4);

  // cells[tuner][parallelism index]
  std::map<std::string, std::map<size_t, CellResult>> cells;
  for (const std::string& name : tuner_names) {
    for (size_t p : kParallelisms) {
      cells[name][p] = RunCell(name, p, &sweep_pool);
    }
  }
  sweep_pool.Shutdown();

  std::printf(
      "\n%-17s %4s  %14s  %9s  %9s  %10s  %6s\n", "tuner", "par",
      "modeled-wall(s)", "speedup", "real(s)", "mean-best", "equiv");
  bool all_replays_ok = true;
  bool baselines_serial_equal = true;
  double serial_modeled_total = 0.0, par8_modeled_total = 0.0;
  double serial_real_total = 0.0, par8_real_total = 0.0;
  for (const std::string& name : tuner_names) {
    const CellResult& serial = cells[name][1];
    serial_modeled_total += serial.modeled_wallclock;
    serial_real_total += serial.real_seconds;
    par8_modeled_total += cells[name][8].modeled_wallclock;
    par8_real_total += cells[name][8].real_seconds;
    for (size_t p : kParallelisms) {
      const CellResult& cell = cells[name][p];
      all_replays_ok = all_replays_ok && cell.replay_ok;
      // The three baselines propose the same configs regardless of batch
      // size, so their whole histories must be bitwise equal to serial.
      // iTuned's constant-liar batching is a different proposal strategy;
      // its equivalence claim is the serial-replay check (equiv column).
      bool serial_equal = cell.checksum == serial.checksum;
      if (name != "ituned" && !serial_equal) baselines_serial_equal = false;
      std::printf("%-17s %4zu  %14.1f  %8.2fx  %9.3f  %10.1f  %6s\n",
                  name.c_str(), p, cell.modeled_wallclock,
                  serial.modeled_wallclock /
                      std::max(cell.modeled_wallclock, 1e-9),
                  cell.real_seconds, cell.mean_best,
                  cell.replay_ok ? "yes" : "NO");
    }
  }
  double modeled_speedup_8 =
      serial_modeled_total / std::max(par8_modeled_total, 1e-9);
  double real_speedup_8 = serial_real_total / std::max(par8_real_total, 1e-9);
  std::printf(
      "\nSweep totals at parallelism 8: modeled experiment wall-clock "
      "%.1fs -> %.1fs (%.2fx);\nharness host time %.3fs -> %.3fs (%.2fx; "
      "bounded by physical cores — the modeled\nfigure is the paper's "
      "claim, the host figure is thread-pool overhead).\n",
      serial_modeled_total, par8_modeled_total, modeled_speedup_8,
      serial_real_total, par8_real_total, real_speedup_8);
  std::printf("Serial-replay equivalence: %s; baseline histories bitwise "
              "equal across batch sizes: %s\n",
              all_replays_ok ? "all 128 sessions bit-identical" : "FAILED",
              baselines_serial_equal ? "yes" : "NO");

  // GP refit cost: full O(n^3) Fit vs O(n^2) AddObservation.
  std::printf("\n%6s  %12s  %16s  %8s\n", "n", "full-fit(ms)",
              "incremental(ms)", "ratio");
  std::vector<GpTiming> gp_timings;
  for (size_t n : {size_t{30}, size_t{100}, size_t{300}}) {
    gp_timings.push_back(TimeGpRefit(n));
    const GpTiming& t = gp_timings.back();
    std::printf("%6zu  %12.3f  %16.3f  %7.1fx\n", t.n, t.full_ms,
                t.incremental_ms, t.ratio);
  }

  // E15: observability overhead of the full tracing+metrics stack.
  ObsOverhead obs = MeasureObservabilityOverhead();
  std::printf(
      "\nObservability overhead (E15, serial ituned, %zu spans/session):\n"
      "  untraced %.4fs -> traced %.4fs host time per session;\n"
      "  delta = %.2f%% of the %.1fs modeled experiment wall-clock "
      "(gate < 2%%)\n",
      obs.spans, obs.untraced_host_s, obs.traced_host_s, obs.overhead_pct,
      obs.modeled_wallclock_s);
  for (const auto& e : obs.metrics.entries) {
    if (e.kind != "histogram" || e.count == 0) continue;
    std::printf("  %-30s n=%llu mean=%.3f p99=%.3f\n", e.name.c_str(),
                static_cast<unsigned long long>(e.count), e.mean, e.p99);
  }

  bool speedup_pass = modeled_speedup_8 >= 2.5;
  bool gp_pass = gp_timings.back().ratio >= 10.0;
  bool obs_pass = obs.overhead_pct < 2.0;
  std::printf("\nacceptance: modeled speedup@8 %.2fx (>=2.5x: %s), "
              "equivalence %s, GP incremental@300 %.1fx (>=10x: %s), "
              "tracing overhead %.2f%% (<2%%: %s)\n",
              modeled_speedup_8, speedup_pass ? "PASS" : "FAIL",
              all_replays_ok && baselines_serial_equal ? "PASS" : "FAIL",
              gp_timings.back().ratio, gp_pass ? "PASS" : "FAIL",
              obs.overhead_pct, obs_pass ? "PASS" : "FAIL");

  // Machine-readable mirror of everything above, published atomically
  // (write-temp-then-rename) so a crash can't leave a torn report.
  FILE* json = std::fopen("BENCH_parallel_engine.json.tmp", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"experiment\": \"bench_parallel_engine\",\n");
    std::fprintf(json, "  \"seeds\": %zu,\n  \"budget\": %zu,\n", kSeeds,
                 kBudget);
    std::fprintf(json, "  \"cells\": [\n");
    bool first = true;
    for (const std::string& name : tuner_names) {
      for (size_t p : kParallelisms) {
        const CellResult& cell = cells[name][p];
        std::fprintf(
            json,
            "%s    {\"tuner\": \"%s\", \"parallelism\": %zu, "
            "\"modeled_wallclock_s\": %.6f, \"real_s\": %.6f, "
            "\"mean_best\": %.6f, \"history_checksum\": \"%016llx\", "
            "\"serial_replay_identical\": %s}",
            first ? "" : ",\n", name.c_str(), p, cell.modeled_wallclock,
            cell.real_seconds, cell.mean_best,
            static_cast<unsigned long long>(cell.checksum),
            cell.replay_ok ? "true" : "false");
        first = false;
      }
    }
    std::fprintf(json, "\n  ],\n");
    std::fprintf(json,
                 "  \"modeled_speedup_at_8\": %.4f,\n"
                 "  \"real_speedup_at_8\": %.4f,\n"
                 "  \"all_serial_replays_identical\": %s,\n"
                 "  \"baseline_histories_equal_across_batch_sizes\": %s,\n",
                 modeled_speedup_8, real_speedup_8,
                 all_replays_ok ? "true" : "false",
                 baselines_serial_equal ? "true" : "false");
    std::fprintf(json, "  \"gp_refit\": [\n");
    for (size_t i = 0; i < gp_timings.size(); ++i) {
      const GpTiming& t = gp_timings[i];
      std::fprintf(json,
                   "    {\"n\": %zu, \"full_fit_ms\": %.4f, "
                   "\"incremental_ms\": %.4f, \"ratio\": %.2f}%s\n",
                   t.n, t.full_ms, t.incremental_ms, t.ratio,
                   i + 1 < gp_timings.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    // E15: host-time cost of the observability layer, plus the traced
    // session's metric histograms (machine-readable mirror of the console
    // block above; "host" metrics vary run to run by design).
    std::fprintf(json,
                 "  \"observability\": {\n"
                 "    \"untraced_host_s\": %.6f,\n"
                 "    \"traced_host_s\": %.6f,\n"
                 "    \"modeled_wallclock_s\": %.4f,\n"
                 "    \"overhead_pct_of_modeled\": %.4f,\n"
                 "    \"spans_per_session\": %zu,\n"
                 "    \"histograms\": [\n",
                 obs.untraced_host_s, obs.traced_host_s,
                 obs.modeled_wallclock_s, obs.overhead_pct, obs.spans);
    {
      bool first_hist = true;
      for (const auto& e : obs.metrics.entries) {
        if (e.kind != "histogram") continue;
        std::fprintf(json,
                     "%s      {\"name\": \"%s\", \"count\": %llu, "
                     "\"mean\": %.6f, \"p50\": %.6f, \"p99\": %.6f, "
                     "\"max\": %.6f}",
                     first_hist ? "" : ",\n", e.name.c_str(),
                     static_cast<unsigned long long>(e.count), e.mean, e.p50,
                     e.p99, e.max);
        first_hist = false;
      }
    }
    std::fprintf(json, "\n    ]\n  },\n");
    std::fprintf(json,
                 "  \"pass\": {\"modeled_speedup_ge_2p5\": %s, "
                 "\"equivalence\": %s, \"gp_incremental_ge_10x\": %s, "
                 "\"tracing_overhead_lt_2pct\": %s}\n}\n",
                 speedup_pass ? "true" : "false",
                 all_replays_ok && baselines_serial_equal ? "true" : "false",
                 gp_pass ? "true" : "false", obs_pass ? "true" : "false");
    if (CommitTempFile(json, "BENCH_parallel_engine.json").ok()) {
      std::printf("wrote BENCH_parallel_engine.json\n");
    }
  }
  return AcceptanceExit(speedup_pass && gp_pass && all_replays_ok &&
                        baselines_serial_equal && obs_pass);
}
