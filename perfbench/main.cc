// End-to-end benchmark of the atune library and the atuned service.
//
//   perfbench --workload {gp-serial|batch-durable} --seed N --seconds S
//             --trace {0|1} --scratch DIR
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 0 only when every
// output check passed. perfbench/run.py builds this binary and runs it; see
// perfbench/README.md.

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"session_s_p50", "s"},
    {"trials_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"e2e.session_s_tail", "s"},
    {"e2e.session_tail_pct", "%"},
    {"ml.gp_fit.self_s", "s"},
    {"ml.gp_fit.calls", "count"},
    {"ml.gp.hyper_searches", "count"},
    {"ml.gp.incremental_refits", "count"},
    {"ml.acquisition.self_s", "s"},
    {"ml.acquisition.calls", "count"},
    {"core.trial.self_s", "s"},
    {"common.pool.queue_wait_s", "s"},
    {"core.journal.append_s", "s"},
    {"core.journal.open_s", "s"},
    {"core.journal.appends", "count"},
    {"common.io.fsyncs", "count"},
    {"common.io.dir_syncs", "count"},
    {"common.io.bytes_written", "bytes"},
    {"common.io.fsync_s", "s"},
    {"common.io.trials", "count"},
    {"common.io.fsyncs_per_trial", "ratio"},
    {"common.io.mutating_ops", "count"},
    {"core.resume.s", "s"},
    {"systems.execute.calls", "count"},
    {"systems.execute.s", "s"},
    {"net.setup_s", "s"},
    {"net.verdict_ms_p50.light", "ms"},
    {"net.verdict_ms_p99.light", "ms"},
    {"net.verdict_ms_p50.heavy", "ms"},
    {"net.verdict_ms_p99.heavy", "ms"},
    {"net.session_ms_p50.light", "ms"},
    {"net.session_ms_tail.light", "ms"},
    {"net.result_ms_p50.heavy", "ms"},
    {"net.trials_per_s.heavy", "1/s"},
    {"net.max_rate_per_s", "1/s"},
    {"net.start_call_ms.p50", "ms"},
    {"net.start_call_ms.p99", "ms"},
    {"net.attach_call_ms.p50", "ms"},
    {"net.admitted", "count"},
    {"net.shed_queue_full", "count"},
    {"net.shed_tenant_quota", "count"},
    {"net.completed", "count"},
    {"net.queued_max", "count"},
    {"net.fsyncs_per_session", "ratio"},
    {"net.fsync_s", "s"},
    {"core.knowledge.shards", "count"},
    {"share.ml", "%"},
    {"share.journal", "%"},
    {"share.systems", "%"},
    {"obs.tracing_overhead", "ratio"},
    {"obs.traced_wall_s", "s"},
    {"unattributed_s", "s"},
    {"quality.best_speedup_geomean", "x"},
    {"bench.generator_lag_ms_p99", "ms"},
};

void Result::Add(const std::string& name, double value) {
  metrics_.push_back({name, value, ""});
}

void Result::Finish(const std::vector<MetricSpec>& catalogue,
                    bool zero_missing) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : catalogue) {
    auto it = std::find_if(
        metrics_.begin(), metrics_.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    if (it == metrics_.end() && !zero_missing) {
      Fail(std::string("metric not measured: ") + spec.name);
    }
    ordered.push_back(
        {spec.name, it == metrics_.end() ? 0.0 : it->value, spec.unit});
  }
  for (const Metric& m : metrics_) {
    bool known =
        std::any_of(catalogue.begin(), catalogue.end(),
                    [&](const MetricSpec& s) { return m.name == s.name; });
    if (!known) Fail("metric outside the catalogue: " + m.name);
  }
  metrics_ = std::move(ordered);
}

void Result::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i > 0 ? ", " : "") << "\"" << metrics_[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n < 20) {
    tail.value = values.back();
    return tail;
  }
  // Exactly ten samples lie beyond index n - 11.
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

uint64_t FoldChecksum(uint64_t hash, uint64_t checksum) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (checksum >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void CheckGolden(const char* what, uint64_t golden, uint64_t folded,
                 const Args& args, Result* result) {
  std::fprintf(stderr, "%s reference set checksum at seed %llu: %016llx\n",
               what, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(folded));
  if (args.seed == kDefaultSeed && folded != golden) {
    result->Fail(atune::StrFormat(
        "%s: reference checksums %016llx differ from the golden %016llx",
        what, static_cast<unsigned long long>(folded),
        static_cast<unsigned long long>(golden)));
  }
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{gp-serial|batch-durable} --seed N --seconds S "
               "--trace {0|1} --scratch DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scratch.empty()) return Usage("--scratch is required");
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  ::signal(SIGPIPE, SIG_IGN);
  atune::SetLogLevel(atune::LogLevel::kError);

  perfbench::Result result;
  if (args.workload == "gp-serial") {
    result = perfbench::RunGpSerial(args);
  } else if (args.workload == "batch-durable") {
    result = perfbench::RunBatchDurable(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) {
    result.Finish(perfbench::kPerLayerMetrics, /*zero_missing=*/true);
  } else {
    result.Finish(perfbench::kEndToEndMetrics, /*zero_missing=*/false);
  }
  std::fflush(stderr);
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
