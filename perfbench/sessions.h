// One library tuning session driven from outside, as every workload runs it:
// a fresh tuner and system per call, timed around RunTuningSession /
// ResumeTuningSession only.
#ifndef PERFBENCH_SESSIONS_H_
#define PERFBENCH_SESSIONS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"

namespace perfbench {

struct LocalSpec {
  std::string tuner;
  std::string system;
  std::string workload;
  uint64_t system_seed = 0;
  uint64_t session_seed = 0;
  size_t budget = 0;
  size_t parallelism = 1;

  std::string Label() const { return tuner + "/" + system + "/" + workload; }
};

/// Instrumentation of a traced session: all borrowed, all optional.
struct Instruments {
  atune::Tracer* tracer = nullptr;
  atune::MetricsRegistry* metrics = nullptr;
  ExecuteCounters* execute = nullptr;
};

struct SessionRun {
  bool ok = false;
  std::string error;
  uint64_t checksum = 0;
  size_t trials = 0;  ///< each executed live once, resumed or not
  size_t replayed = 0;
  double speedup = 0.0;
  double wall_s = 0.0;    ///< Run (+ Resume) call wall
  double resume_s = 0.0;  ///< Resume call wall, 0 when not interrupted
};

/// Runs one session; with `interrupt` it stops at budget/2 journal records
/// and is finished by ResumeTuningSession on a fresh stack, as after a
/// crash. An empty `journal` runs un-journaled; `journal_bytes` (optional)
/// receives the final journal.
SessionRun RunSession(const LocalSpec& spec, const std::string& journal,
                      bool interrupt, bool measure_default,
                      const Instruments& inst,
                      std::string* journal_bytes = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SESSIONS_H_
