// E20 — warm-start transfer learning over the sharded knowledge repository
// (DESIGN.md §14), proven three ways:
//
//   * convergence: a matrix of (tuner × workload × seed) sessions runs cold
//     and warm (WarmStartTuner seeded from a repository built out of
//     completed historic sessions); the median budget a warm session needs
//     to reach within 5% of the cell's best must beat the cold median
//     strictly — transfer learning must pay for its probe trial
//   * ingest durability: single-writer ingest under a 15% short-write/
//     EINTR/transient-EIO storm and an 8-thread concurrent ingest storm on
//     the real filesystem; afterwards every published shard CRC-verifies
//     and LoadAll reports zero corrupt shards
//   * resume: a warmed journaled session killed after 1, n/2, n-1 committed
//     records and resumed against the same pinned snapshot must reach the
//     uninterrupted OutcomeChecksum with byte-identical final journal —
//     the warm schedule is replay-derived, not re-decided
//
// Results go to console + BENCH_warmstart.json (published atomically) +
// BENCH_warmstart.csv.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/csv.h"
#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "core/journal.h"
#include "core/knowledge_repo.h"
#include "core/registry.h"
#include "core/session.h"
#include "tuners/builtin.h"
#include "tuners/warm_start.h"

namespace atune {
namespace bench {
namespace {

const size_t kBudget = SmokeSize(20, 8);
const size_t kSeeds = SmokeSize(3, 1);
constexpr uint64_t kSystemSeed = 77;
constexpr double kConvergenceSlack = 1.05;  // "within 5% of the cell's best"

std::vector<std::string> BenchTuners() {
  if (SmokeMode()) return {"random-search"};
  return {"random-search", "ituned"};
}

std::vector<Workload> BenchWorkloads() {
  if (SmokeMode()) return {MakeDbmsOlapWorkload(1.0)};
  return {MakeDbmsOlapWorkload(1.0), MakeDbmsOltpWorkload(1.0),
          MakeDbmsOlapWorkload(2.0)};
}

Result<TuningOutcome> RunCell(Tuner* tuner, const Workload& workload,
                              uint64_t seed, const std::string& journal,
                              uint64_t kill_after, bool resume) {
  auto dbms = MakeDbms(kSystemSeed);
  dbms->set_noise_sigma(0.0);  // the comparison isolates the search policy
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = seed;
  options.measure_default = false;
  options.journal_path = journal;
  options.interrupt_after_records = kill_after;
  return resume ? ResumeTuningSession(tuner, dbms.get(), workload, options)
                : RunTuningSession(tuner, dbms.get(), workload, options);
}

/// The knowledge base every warm session maps against: completed historic
/// sessions over the bench workloads, ingested as shards and read back —
/// the same round trip atuned performs.
Status BuildKnowledgeBase(KnowledgeRepository& repo) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto dbms = MakeDbms(kSystemSeed);
  dbms->set_noise_sigma(0.0);
  uint64_t seed = 500;
  for (const Workload& wl : BenchWorkloads()) {
    for (int rep = 0; rep < 2; ++rep) {
      auto tuner = registry.Create("random-search");
      if (!tuner.ok()) return tuner.status();
      SessionOptions options;
      options.budget = TuningBudget{SmokeSize(12, 6)};
      options.seed = seed;
      options.measure_default = false;
      auto outcome = RunTuningSession(tuner->get(), dbms.get(), wl, options);
      if (!outcome.ok()) return outcome.status();
      KnowledgeRecord rec = MakeKnowledgeRecord(
          StrFormat("hist-%llu", static_cast<unsigned long long>(seed)),
          "bench", dbms->name(), dbms->space(), dbms->MetricNames(), wl, seed,
          options.budget.max_evaluations, *outcome);
      Status s = repo.Ingest(rec);
      if (!s.ok()) return s;
      ++seed;
    }
  }
  return Status::OK();
}

/// Budget spent until the convergence curve first reaches
/// kConvergenceSlack × target; budget+1 when it never does.
double CostToReach(const TuningOutcome& outcome, double target) {
  const double threshold = target * kConvergenceSlack;
  for (size_t i = 0; i < outcome.convergence.size(); ++i) {
    if (outcome.convergence[i] <= threshold) {
      return outcome.convergence_cost[i];
    }
  }
  return double(kBudget + 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 == 1
             ? v[v.size() / 2]
             : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
}

struct Cell {
  std::string tuner;
  std::string workload;
  uint64_t seed = 0;
  double cold_cost = 0.0;
  double warm_cost = 0.0;
  double cold_best = 0.0;
  double warm_best = 0.0;
  size_t warm_evaluations = 0;
  size_t mapped = 0;
};

}  // namespace

int Main() {
  PrintHeader("E20 bench_warmstart",
              "transfer learning across tuning sessions (OtterTune §5)",
              "knowledge-repo warm start: convergence, durable ingest, "
              "bit-identical warm resume");

  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);

  // ----- knowledge base --------------------------------------------------
  const std::string kb_dir = "bench_warmstart_kb";
  (void)std::system(("rm -rf '" + kb_dir + "'").c_str());
  KnowledgeRepository repo(kb_dir);
  Status kb = BuildKnowledgeBase(repo);
  if (!kb.ok()) {
    std::fprintf(stderr, "knowledge base build failed: %s\n",
                 kb.ToString().c_str());
    return 1;
  }
  size_t kb_corrupt = 0;
  auto snapshot = repo.LoadAll(&kb_corrupt);
  if (!snapshot.ok() || kb_corrupt != 0) {
    std::fprintf(stderr, "knowledge base reload failed\n");
    return 1;
  }
  std::printf("\nknowledge base: %zu shard(s) in %s\n", snapshot->size(),
              kb_dir.c_str());

  // ----- pass 1: cold vs warm convergence --------------------------------
  std::vector<Cell> cells;
  std::vector<double> cold_costs, warm_costs;
  for (const std::string& tuner_name : BenchTuners()) {
    for (const Workload& wl : BenchWorkloads()) {
      for (uint64_t s = 0; s < kSeeds; ++s) {
        const uint64_t seed = 1000 + s;
        Cell cell;
        cell.tuner = tuner_name;
        cell.workload = wl.name + StrFormat("@%.1f", wl.scale);
        cell.seed = seed;

        auto cold_tuner = registry.Create(tuner_name);
        if (!cold_tuner.ok()) continue;
        auto cold = RunCell(cold_tuner->get(), wl, seed, "", 0, false);
        if (!cold.ok()) continue;

        auto warm_tuner =
            MakeWarmStartTuner(registry, tuner_name, *snapshot);
        if (!warm_tuner.ok()) continue;
        auto* warm_ptr = static_cast<WarmStartTuner*>(warm_tuner->get());
        auto warm = RunCell(warm_tuner->get(), wl, seed, "", 0, false);
        if (!warm.ok()) continue;

        const double target =
            std::min(cold->best_objective, warm->best_objective);
        cell.cold_cost = CostToReach(*cold, target);
        cell.warm_cost = CostToReach(*warm, target);
        cell.cold_best = cold->best_objective;
        cell.warm_best = warm->best_objective;
        cell.warm_evaluations = warm_ptr->warm_evaluations();
        cell.mapped = warm_ptr->mapped_sessions().size();
        cold_costs.push_back(cell.cold_cost);
        warm_costs.push_back(cell.warm_cost);
        cells.push_back(cell);
      }
    }
  }
  const double cold_median = Median(cold_costs);
  const double warm_median = Median(warm_costs);
  const bool warm_pass = !cells.empty() && warm_median < cold_median;
  std::printf("\ncold vs warm (budget %zu, %zu cells, cost to within 5%% of "
              "cell best):\n",
              kBudget, cells.size());
  for (const Cell& c : cells) {
    std::printf(
        "  %-14s %-12s seed %llu: cold %5.1f warm %5.1f "
        "(seeded %zu from %zu mapped)\n",
        c.tuner.c_str(), c.workload.c_str(),
        static_cast<unsigned long long>(c.seed), c.cold_cost, c.warm_cost,
        c.warm_evaluations, c.mapped);
  }
  std::printf("  median: cold %.1f, warm %.1f (gate: warm < cold) %s\n",
              cold_median, warm_median, warm_pass ? "PASS" : "FAIL");

  // ----- pass 2: ingest durability ---------------------------------------
  const std::string fault_dir = "bench_warmstart_faults";
  (void)std::system(("rm -rf '" + fault_dir + "'").c_str());
  const size_t kFaultRecords = SmokeSize(30, 10);
  size_t fault_ingested = 0;
  uint64_t injected = 0;
  {
    IoFaultSchedule schedule;
    schedule.seed = 99;
    schedule.short_write_rate = 0.15;
    schedule.eintr_rate = 0.15;
    schedule.transient_eio_rate = 0.15;
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    KnowledgeRepository faulted(fault_dir);
    for (size_t i = 0; i < kFaultRecords; ++i) {
      KnowledgeRecord rec = (*snapshot)[i % snapshot->size()];
      rec.session_id = StrFormat("faulted-%zu", i);
      if (faulted.Ingest(rec).ok()) ++fault_ingested;
    }
    injected = env.injected_total();
  }
  size_t fault_corrupt = 0;
  auto fault_loaded = KnowledgeRepository(fault_dir).LoadAll(&fault_corrupt);
  const bool fault_pass = fault_loaded.ok() && fault_corrupt == 0 &&
                          fault_loaded->size() == fault_ingested &&
                          fault_ingested == kFaultRecords;

  const std::string storm_dir = "bench_warmstart_storm";
  (void)std::system(("rm -rf '" + storm_dir + "'").c_str());
  const size_t kThreads = 8;
  const size_t kPerThread = SmokeSize(25, 5);
  std::atomic<size_t> storm_failures{0};
  {
    KnowledgeRepository storm(storm_dir);
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&storm, &storm_failures, &snapshot, kPerThread,
                            t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          KnowledgeRecord rec = (*snapshot)[(t + i) % snapshot->size()];
          rec.session_id = StrFormat("storm-%zu-%zu", t, i);
          if (!storm.Ingest(rec).ok()) storm_failures.fetch_add(1);
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  size_t storm_corrupt = 0;
  auto storm_loaded = KnowledgeRepository(storm_dir).LoadAll(&storm_corrupt);
  const bool storm_pass = storm_loaded.ok() && storm_corrupt == 0 &&
                          storm_failures.load() == 0 &&
                          storm_loaded->size() == kThreads * kPerThread;
  const bool ingest_pass = fault_pass && storm_pass;
  std::printf(
      "\ningest: 15%%-fault single writer %zu/%zu shards, %llu faults "
      "injected, %zu corrupt %s\n"
      "        %zu-thread storm %zu/%zu shards, %zu corrupt %s\n",
      fault_ingested, kFaultRecords,
      static_cast<unsigned long long>(injected), fault_corrupt,
      fault_pass ? "PASS" : "FAIL", kThreads,
      storm_loaded.ok() ? storm_loaded->size() : 0, kThreads * kPerThread,
      storm_corrupt, storm_pass ? "PASS" : "FAIL");

  // ----- pass 3: warmed kill -> resume bit-identity ----------------------
  bool resume_pass = true;
  {
    const Workload wl = BenchWorkloads().front();
    const std::string journal = "bench_warmstart_resume.wal";
    std::remove(journal.c_str());
    auto baseline_tuner = MakeWarmStartTuner(registry, "random-search",
                                             *snapshot);
    resume_pass = baseline_tuner.ok();
    uint64_t baseline_checksum = 0;
    std::string baseline_journal;
    uint64_t records = 0;
    if (resume_pass) {
      auto baseline = RunCell(baseline_tuner->get(), wl, 2000, journal, 0,
                              false);
      resume_pass = baseline.ok();
      if (resume_pass) {
        baseline_checksum = OutcomeChecksum(*baseline);
        (void)ReadFileToString(journal, &baseline_journal);
        auto recovered = TrialJournal::OpenForResume(journal);
        records = recovered.ok() ? recovered->records.size() : 0;
      }
    }
    std::remove(journal.c_str());
    if (resume_pass && records >= 2) {
      std::set<uint64_t> kills = {1, records / 2, records - 1};
      for (uint64_t kill : kills) {
        if (kill == 0 || kill >= records) continue;
        std::remove(journal.c_str());
        auto killed_tuner = MakeWarmStartTuner(registry, "random-search",
                                               *snapshot);
        auto killed = RunCell((*killed_tuner).get(), wl, 2000, journal, kill,
                              false);
        const bool aborted =
            !killed.ok() && killed.status().code() == StatusCode::kAborted;
        auto resumed_tuner = MakeWarmStartTuner(registry, "random-search",
                                                *snapshot);
        auto resumed = RunCell((*resumed_tuner).get(), wl, 2000, journal, 0,
                               true);
        std::string final_journal;
        (void)ReadFileToString(journal, &final_journal);
        const bool match = resumed.ok() &&
                           OutcomeChecksum(*resumed) == baseline_checksum &&
                           final_journal == baseline_journal;
        std::printf("resume: kill@%llu/%llu aborted=%d checksum+journal %s\n",
                    static_cast<unsigned long long>(kill),
                    static_cast<unsigned long long>(records), aborted ? 1 : 0,
                    match ? "PASS" : "FAIL");
        resume_pass = resume_pass && aborted && match;
        std::remove(journal.c_str());
      }
    } else {
      resume_pass = false;
    }
  }

  const bool pass = warm_pass && ingest_pass && resume_pass;
  std::printf("\nacceptance: warm %s, ingest %s, resume %s\n",
              warm_pass ? "PASS" : "FAIL", ingest_pass ? "PASS" : "FAIL",
              resume_pass ? "PASS" : "FAIL");

  std::ostringstream json;
  json << "{\n  \"experiment\": \"bench_warmstart\",\n";
  json << StrFormat("  \"budget\": %zu,\n  \"knowledge_shards\": %zu,\n",
                    kBudget, snapshot->size());
  json << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << StrFormat(
        "    {\"tuner\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
        "\"cold_cost\": %.1f, \"warm_cost\": %.1f, \"cold_best\": %.4f, "
        "\"warm_best\": %.4f, \"warm_evaluations\": %zu, \"mapped\": %zu}%s\n",
        c.tuner.c_str(), c.workload.c_str(),
        static_cast<unsigned long long>(c.seed), c.cold_cost, c.warm_cost,
        c.cold_best, c.warm_best, c.warm_evaluations, c.mapped,
        i + 1 < cells.size() ? "," : "");
  }
  json << StrFormat(
      "  ],\n  \"cold_median_cost\": %.1f,\n  \"warm_median_cost\": %.1f,\n",
      cold_median, warm_median);
  json << StrFormat(
      "  \"ingest\": {\"faulted_records\": %zu, \"faults_injected\": %llu, "
      "\"faulted_corrupt\": %zu, \"storm_records\": %zu, "
      "\"storm_corrupt\": %zu},\n",
      fault_ingested, static_cast<unsigned long long>(injected), fault_corrupt,
      storm_loaded.ok() ? storm_loaded->size() : 0, storm_corrupt);
  json << StrFormat(
      "  \"pass\": {\"warm\": %s, \"ingest\": %s, \"resume\": %s}\n}\n",
      warm_pass ? "true" : "false", ingest_pass ? "true" : "false",
      resume_pass ? "true" : "false");
  if (AtomicWriteFile("BENCH_warmstart.json", json.str()).ok()) {
    std::printf("wrote BENCH_warmstart.json\n");
  }

  TableWriter csv({"tuner", "workload", "seed", "cold_cost", "warm_cost",
                   "cold_best", "warm_best", "warm_evaluations", "mapped"});
  for (const Cell& c : cells) {
    csv.AddRow({c.tuner, c.workload,
                StrFormat("%llu", static_cast<unsigned long long>(c.seed)),
                StrFormat("%.1f", c.cold_cost),
                StrFormat("%.1f", c.warm_cost),
                StrFormat("%.4f", c.cold_best),
                StrFormat("%.4f", c.warm_best),
                StrFormat("%zu", c.warm_evaluations),
                StrFormat("%zu", c.mapped)});
  }
  if (csv.WriteCsvFile("BENCH_warmstart.csv").ok()) {
    std::printf("wrote BENCH_warmstart.csv\n");
  }

  (void)std::system(("rm -rf '" + kb_dir + "' '" + fault_dir + "' '" +
                     storm_dir + "'")
                        .c_str());
  return AcceptanceExit(pass);
}

}  // namespace bench
}  // namespace atune

int main() { return atune::bench::Main(); }
