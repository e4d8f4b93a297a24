#include "sessions.h"

#include <filesystem>
#include <memory>
#include <string>

#include "bench.h"
#include "common/file_util.h"
#include "core/outcome_checksum.h"
#include "core/registry.h"
#include "core/session.h"
#include "systems/system_factory.h"
#include "tuners/builtin.h"

namespace perfbench {
namespace {

const atune::TunerRegistry& Registry() {
  static const atune::TunerRegistry registry = [] {
    atune::TunerRegistry r;
    atune::RegisterBuiltinTuners(&r);
    return r;
  }();
  return registry;
}

/// A fresh tuner and system for one library call, built outside the timed
/// region (a resumed session gets new ones, as after a crash).
struct Stack {
  std::unique_ptr<atune::Tuner> tuner;
  std::unique_ptr<atune::TunableSystem> system;
  atune::Workload workload;
  std::string error;
};

Stack BuildStack(const LocalSpec& spec, ExecuteCounters* execute) {
  Stack stack;
  auto tuner = Registry().Create(spec.tuner);
  auto system = atune::MakeSystemByName(spec.system, 0, spec.system_seed);
  auto workload = atune::WorkloadByName(spec.system, spec.workload, 1.0);
  if (!tuner.ok() || !system.ok() || !workload.ok()) {
    stack.error = "cannot build " + spec.Label();
    return stack;
  }
  stack.tuner = std::move(*tuner);
  stack.tuner->set_parallelism(spec.parallelism);
  stack.system = std::move(*system);
  if (execute != nullptr) {
    stack.system =
        std::make_unique<TimingSystem>(std::move(stack.system), execute);
  }
  stack.workload = *workload;
  return stack;
}

}  // namespace

SessionRun RunSession(const LocalSpec& spec, const std::string& journal,
                      bool interrupt, bool measure_default,
                      const Instruments& inst, std::string* journal_bytes) {
  SessionRun run;
  atune::SessionOptions options;
  options.budget.max_evaluations = spec.budget;
  options.seed = spec.session_seed;
  options.journal_path = journal;
  options.measure_default = measure_default;
  options.tracer = inst.tracer;
  options.metrics = inst.metrics;
  if (!journal.empty()) std::filesystem::remove(journal);

  Stack stack = BuildStack(spec, inst.execute);
  if (!stack.error.empty()) {
    run.error = stack.error;
    return run;
  }
  if (interrupt) options.interrupt_after_records = spec.budget / 2;
  double t0 = NowS();
  auto outcome = atune::RunTuningSession(stack.tuner.get(), stack.system.get(),
                                         stack.workload, options);
  run.wall_s = NowS() - t0;
  if (interrupt) {
    if (outcome.ok() ||
        outcome.status().code() != atune::StatusCode::kAborted) {
      run.error = spec.Label() + ": interrupted session did not abort";
      return run;
    }
    Stack fresh = BuildStack(spec, inst.execute);
    if (!fresh.error.empty()) {
      run.error = fresh.error;
      return run;
    }
    options.interrupt_after_records = 0;
    double t1 = NowS();
    outcome = atune::ResumeTuningSession(fresh.tuner.get(), fresh.system.get(),
                                         fresh.workload, options);
    run.resume_s = NowS() - t1;
    run.wall_s += run.resume_s;
  }
  if (journal_bytes != nullptr &&
      !atune::ReadFileToString(journal, journal_bytes).ok()) {
    journal_bytes->clear();
  }
  if (!journal.empty()) std::filesystem::remove(journal);
  if (!outcome.ok()) {
    run.error = spec.Label() + ": " + outcome.status().ToString();
    return run;
  }
  run.ok = true;
  run.checksum = atune::OutcomeChecksum(*outcome);
  run.trials = outcome->history.size();
  run.replayed = outcome->replayed_records;
  run.speedup = outcome->speedup_over_default;
  return run;
}

}  // namespace perfbench
