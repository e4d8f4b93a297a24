// The two local-session workloads. Both drive RunTuningSession /
// ResumeTuningSession from outside, closed loop, one session at a time:
//
//   gp-serial      serial journaled iTuned and OtterTune on the DBMS
//                  (olap, oltp) at budget 200, fresh seeds every round: the
//                  GP surrogate's layer.
//   batch-durable  random-search and recursive-random at parallelism 4,
//                  journal on, budget 400, over dbms/mapreduce/spark. Every
//                  spec runs as a twin pair: one uninterrupted session and
//                  one interrupted at budget/2 and finished by
//                  ResumeTuningSession: the journal, commit and pool layers.
//                  Its traced run also runs the served probe (served.cc).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "core/outcome_checksum.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "sessions.h"

namespace perfbench {
namespace {

using atune::StrFormat;

struct SpecTemplate {
  const char* tuner;
  const char* system;
  const char* workload;
};

const std::vector<SpecTemplate> kGpSpecs = {
    {"ituned", "dbms", "olap"},
    {"ituned", "dbms", "oltp"},
    {"ottertune", "dbms", "olap"},
    {"ottertune", "dbms", "oltp"},
};

const std::vector<SpecTemplate> kBatchSpecs = {
    {"random-search", "dbms", "olap"},
    {"recursive-random", "dbms", "oltp"},
    {"random-search", "mapreduce", "terasort"},
    {"recursive-random", "mapreduce", "wordcount"},
    {"random-search", "spark", "sql_aggregate"},
    {"recursive-random", "spark", "iterative_ml"},
    {"recursive-random", "dbms", "olap"},
    {"random-search", "dbms", "oltp"},
    {"recursive-random", "mapreduce", "terasort"},
    {"random-search", "mapreduce", "wordcount"},
    {"recursive-random", "spark", "sql_aggregate"},
    {"random-search", "spark", "iterative_ml"},
};

/// FoldChecksum over the round-0 checksums, in spec order, at kDefaultSeed.
constexpr uint64_t kGpGolden = 0x4110be2ebdbbf4b1;
constexpr uint64_t kBatchGolden = 0x4ded88f0aca04ce1;

/// The specs of one round. Seeds come from (seed, round, index), so a
/// round is reproducible and two rounds are different inputs.
std::vector<LocalSpec> MakeSpecs(const std::vector<SpecTemplate>& templates,
                                 uint64_t seed, size_t round, size_t budget,
                                 size_t parallelism) {
  std::vector<LocalSpec> specs;
  for (size_t i = 0; i < templates.size(); ++i) {
    LocalSpec spec;
    spec.tuner = templates[i].tuner;
    spec.system = templates[i].system;
    spec.workload = templates[i].workload;
    spec.system_seed = DeriveSeed(seed, 100 * round + i);
    spec.session_seed = DeriveSeed(seed, 1000000 + 100 * round + i);
    spec.budget = budget;
    spec.parallelism = parallelism;
    specs.push_back(spec);
  }
  return specs;
}

/// Checks one measured session against its spec and reference checksum
/// (0 = no reference). Returns whether every check passed.
bool CheckSession(const LocalSpec& spec, const SessionRun& run,
                  bool interrupted, uint64_t reference, Result* result) {
  bool ok = run.ok;
  if (!run.ok) result->Fail(run.error);
  if (ok && run.trials != spec.budget) {
    result->Fail(StrFormat("%s: %zu trials, want %zu", spec.Label().c_str(),
                           run.trials, spec.budget));
    ok = false;
  }
  if (ok && interrupted && (run.replayed == 0 || run.replayed >= spec.budget)) {
    result->Fail(StrFormat("%s: resume replayed %zu of %zu records",
                           spec.Label().c_str(), run.replayed, spec.budget));
    ok = false;
  }
  if (ok && reference != 0 && run.checksum != reference) {
    result->Fail(StrFormat("%s: checksum %016llx, reference %016llx%s",
                           spec.Label().c_str(),
                           static_cast<unsigned long long>(run.checksum),
                           static_cast<unsigned long long>(reference),
                           interrupted ? " (resumed twin)" : ""));
    ok = false;
  }
  if (ok && !(run.speedup > 0.0)) {
    result->Fail(spec.Label() + ": no speedup over the default");
    ok = false;
  }
  result->Attempt(ok);
  return ok;
}

/// Self-test of the probes: the same session with and without them must
/// produce the same outcome checksum and the same journal bytes.
void ProbeSelfTest(const LocalSpec& spec, bool interrupt, const Args& args,
                   CountingIoEnv* env, Result* result) {
  const std::string journal = args.scratch + "/selftest.wal";
  std::string plain_bytes, probed_bytes;
  SessionRun plain =
      RunSession(spec, journal, interrupt, true, Instruments{}, &plain_bytes);
  atune::Tracer tracer;
  atune::MetricsRegistry metrics;
  ExecuteCounters execute;
  SessionRun probed;
  {
    atune::ScopedIoEnv install(env);
    probed = RunSession(spec, journal, interrupt, true,
                        Instruments{&tracer, &metrics, &execute},
                        &probed_bytes);
  }
  bool ok = plain.ok && probed.ok && plain.checksum == probed.checksum &&
            !plain_bytes.empty() && plain_bytes == probed_bytes &&
            execute.calls.load() > 0 && env->Snapshot().fsyncs > 0;
  std::fprintf(stderr,
               "probe self-test (%s): checksum %016llx vs %016llx, journal "
               "%zu vs %zu bytes: %s\n",
               spec.Label().c_str(),
               static_cast<unsigned long long>(plain.checksum),
               static_cast<unsigned long long>(probed.checksum),
               plain_bytes.size(), probed_bytes.size(),
               ok ? "identical" : "DIFFERENT");
  if (!ok) result->Fail("probes changed the outcome or the journal bytes");
}

/// One local workload.
struct LocalWorkload {
  const char* name;
  std::vector<SpecTemplate> templates;
  size_t budget = 0;
  size_t parallelism = 1;
  /// Each spec runs as a twin pair: uninterrupted, then interrupted and
  /// resumed.
  bool twins = false;
  /// Every round repeats round 0's specs, whose references set-up computes
  /// with un-journaled serial runs (cheap tuners only). Otherwise each round
  /// draws fresh seeds, so a run averages over more inputs, and only round 0
  /// is checked against the golden.
  bool setup_references = false;
  uint64_t golden = 0;
  /// Budget of the probe self-test session (the first spec of round 0).
  size_t selftest_budget = 0;
  /// Nominal round length: a run does --seconds / round_seconds whole rounds
  /// (half as many traced, where every session runs twice), so every run of
  /// a commit does the same work however fast the machine is that minute.
  double round_seconds = 0;
};

constexpr int kSetupRepeats = 5;

Result RunLocalWorkload(const LocalWorkload& w, const Args& args) {
  Result result;
  const std::vector<LocalSpec> round0 =
      MakeSpecs(w.templates, args.seed, 0, w.budget, w.parallelism);

  // ---- set-up: warm-up or reference checksums, repeated, median reported.
  std::vector<double> setup_samples;
  std::vector<uint64_t> references(round0.size(), 0);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double t0 = NowS();
    std::vector<uint64_t> refs(round0.size(), 0);
    if (w.setup_references) {
      for (size_t i = 0; i < round0.size(); ++i) {
        LocalSpec serial = round0[i];
        serial.parallelism = 1;
        SessionRun ref = RunSession(serial, "", false, false, Instruments{});
        if (!ref.ok) result.Fail("reference " + ref.error);
        refs[i] = ref.checksum;
      }
    } else {
      // Warm-up: one short un-journaled session per tuner.
      for (size_t i = 0; i < round0.size(); i += 2) {
        LocalSpec warm = round0[i];
        warm.budget = 24;
        RunSession(warm, "", false, false, Instruments{});
      }
    }
    setup_samples.push_back(NowS() - t0);
    if (rep == 0) {
      references = refs;
    } else if (refs != references) {
      result.Fail("reference checksums differ between set-up repetitions");
    }
  }

  // ---- traced-run instruments (installed for the whole traced run).
  CountingIoEnv io(atune::IoEnv::Default());
  if (args.trace) {
    LocalSpec selftest = round0[0];
    selftest.budget = w.selftest_budget;
    ProbeSelfTest(selftest, w.twins, args, &io, &result);
  }
  std::unique_ptr<atune::ScopedIoEnv> io_install;
  if (args.trace) io_install = std::make_unique<atune::ScopedIoEnv>(&io);
  atune::MetricsRegistry metrics;
  ExecuteCounters execute;
  LayerProfile profile;
  IoCounts traced_io;
  uint64_t traced_io_ops = 0;
  double traced_resume_s = 0.0;
  size_t traced_trials = 0;
  std::vector<double> traced_walls, untraced_walls, traced_speedups;

  // ---- measured loop: a fixed number of whole rounds over every spec.
  // Throughput is the median over rounds, so a disk hiccup in one round
  // does not move it.
  std::vector<double> walls, round_rates;
  std::vector<uint64_t> golden_set;
  const std::string journal = args.scratch + "/" + w.name + ".wal";
  size_t rounds = static_cast<size_t>(std::max(
      1.0, std::round(args.seconds / w.round_seconds / (args.trace ? 2 : 1))));
  for (size_t round = 0; round < rounds; ++round) {
    double round_wall = 0.0;
    size_t round_trials = 0;
    const std::vector<LocalSpec> specs =
        w.setup_references
            ? round0
            : MakeSpecs(w.templates, args.seed, round, w.budget,
                        w.parallelism);
    for (size_t i = 0; i < specs.size(); ++i) {
      const LocalSpec& spec = specs[i];
      uint64_t reference = w.setup_references ? references[i] : 0;
      for (int twin = 0; twin < (w.twins ? 2 : 1); ++twin) {
        bool interrupt = twin == 1;
        if (!args.trace) {
          SessionRun run = RunSession(spec, journal, interrupt, true, {});
          if (CheckSession(spec, run, interrupt, reference, &result)) {
            walls.push_back(run.wall_s);
            round_wall += run.wall_s;
            round_trials += run.trials;
          }
          if (round == 0 && !interrupt) golden_set.push_back(run.checksum);
          continue;
        }
        // Traced run: the same session untraced and traced, alternating
        // which goes first.
        bool traced_first = (round + i + twin) % 2 == 1;
        for (int pass = 0; pass < 2; ++pass) {
          bool traced = (pass == 0) == traced_first;
          atune::Tracer tracer;
          Instruments inst;
          if (traced) inst = Instruments{&tracer, &metrics, &execute};
          IoCounts io_before = io.Snapshot();
          uint64_t ops_before = atune::IoOpCount();
          SessionRun run = RunSession(spec, journal, interrupt, true, inst);
          if (!CheckSession(spec, run, interrupt, reference, &result)) {
            continue;
          }
          if (!traced) {
            untraced_walls.push_back(run.wall_s);
            continue;
          }
          if (round == 0 && !interrupt) golden_set.push_back(run.checksum);
          traced_walls.push_back(run.wall_s);
          if (!interrupt) traced_speedups.push_back(run.speedup);
          profile.Add(tracer.Snapshot(), run.wall_s);
          traced_io += io.Snapshot() - io_before;
          traced_io_ops += atune::IoOpCount() - ops_before;
          traced_resume_s += run.resume_s;
          traced_trials += run.trials;
        }
      }
    }
    if (round_wall > 0) round_rates.push_back(round_trials / round_wall);
  }
  uint64_t folded = atune::kFnvOffsetBasis;
  for (uint64_t c : w.setup_references ? references : golden_set) {
    folded = FoldChecksum(folded, c);
  }
  CheckGolden(w.name, w.golden, folded, args, &result);

  if (!args.trace) {
    std::fprintf(stderr, "%s: %zu sessions in %zu rounds\n", w.name,
                 walls.size(), rounds);
    result.Add("setup_s", Median(setup_samples));
    result.Add("peak_rss_mb", PeakRssMb());
    result.Add("session_s_p50", Median(walls));
    result.Add("trials_per_s", Median(round_rates));
    return result;
  }

  std::fprintf(stderr,
               "%s traced sessions (%zu), exclusive wall by layer:\n%s",
               w.name, traced_walls.size(), profile.Table().c_str());
  auto counter = [&](const char* name) {
    return static_cast<double>(metrics.GetCounter(name)->Value());
  };
  double wall = profile.wall_s();
  double ml_s = profile.self_s("ml.gp_fit") + profile.self_s("ml.acquisition");
  double journal_s = profile.self_s("core.journal.append") +
                     profile.self_s(kLayerJournalOpen);
  double io_fsyncs = static_cast<double>(traced_io.fsyncs);
  Tail tail = TailOf(untraced_walls);
  std::fprintf(stderr, "untraced session tail: p%.1f of %zu\n",
               tail.percentile, tail.samples);
  result.Add("e2e.session_s_tail", tail.value);
  result.Add("e2e.session_tail_pct", tail.percentile);
  result.Add("ml.gp_fit.self_s", profile.self_s("ml.gp_fit"));
  result.Add("ml.gp_fit.calls", profile.spans("gp_fit"));
  result.Add("ml.gp.hyper_searches", counter("gp.hyper_searches"));
  result.Add("ml.gp.incremental_refits", counter("gp.incremental_refits"));
  result.Add("ml.acquisition.self_s", profile.self_s("ml.acquisition"));
  result.Add("ml.acquisition.calls", profile.spans("acquisition"));
  result.Add("core.trial.self_s", profile.self_s("core.trial"));
  result.Add("common.pool.queue_wait_s",
             metrics.GetHistogram("pool.queue_wait_host_seconds")->Snap().sum);
  result.Add("core.journal.append_s", profile.self_s("core.journal.append"));
  result.Add("core.journal.open_s", profile.self_s(kLayerJournalOpen));
  result.Add("core.journal.appends", profile.spans("journal_append"));
  result.Add("common.io.fsyncs", io_fsyncs);
  result.Add("common.io.dir_syncs", traced_io.dir_syncs);
  result.Add("common.io.bytes_written", traced_io.bytes_written);
  result.Add("common.io.fsync_s",
             (traced_io.fsync_ns + traced_io.dir_sync_ns) * 1e-9);
  result.Add("common.io.trials", traced_trials);
  result.Add("common.io.fsyncs_per_trial",
             traced_trials > 0 ? io_fsyncs / traced_trials : 0.0);
  result.Add("common.io.mutating_ops", traced_io_ops);
  result.Add("core.resume.s", traced_resume_s);
  result.Add("systems.execute.calls", execute.calls.load());
  result.Add("systems.execute.s", execute.ns.load() * 1e-9);
  result.Add("share.ml", wall > 0 ? 100.0 * ml_s / wall : 0.0);
  result.Add("share.journal", wall > 0 ? 100.0 * journal_s / wall : 0.0);
  result.Add("share.systems",
             wall > 0 ? 100.0 * profile.self_s("systems.measure") / wall : 0.0);
  result.Add("obs.tracing_overhead",
             Median(traced_walls) / Median(untraced_walls));
  result.Add("obs.traced_wall_s", wall);
  result.Add("unattributed_s", profile.self_s(kLayerUnattributed));
  result.Add("quality.best_speedup_geomean", GeoMean(traced_speedups));
  return result;
}

}  // namespace

Result RunGpSerial(const Args& args) {
  LocalWorkload w;
  w.name = "gp-serial";
  w.templates = kGpSpecs;
  w.budget = 200;
  w.golden = kGpGolden;
  w.selftest_budget = 40;
  w.round_seconds = 10.0;
  return RunLocalWorkload(w, args);
}

Result RunBatchDurable(const Args& args) {
  LocalWorkload w;
  w.name = "batch-durable";
  w.templates = kBatchSpecs;
  w.budget = 400;
  w.parallelism = 4;
  w.twins = true;
  w.setup_references = true;
  w.golden = kBatchGolden;
  w.selftest_budget = 400;
  w.round_seconds = 1.6;
  Result result = RunLocalWorkload(w, args);
  if (args.trace) RunServedProbe(args, &result);
  return result;
}

}  // namespace perfbench
