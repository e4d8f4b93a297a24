// Shared pieces of the end-to-end benchmark: run arguments, the result line,
// the timing statistics, and seed derivation. See README.md for the metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seed whose outcome checksums are pinned as goldens (README.md, "Checks").
inline constexpr uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for journals, daemon state and sockets; removed by run.py.
  std::string scratch;
};

/// A reported metric's name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (--trace 0) and the per-layer metrics (--trace 1),
/// in report order. BENCHMARK.json lists the same names and units.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// What one run prints as its last line (see Result::ToJson).
class Result {
 public:
  void Add(const std::string& name, double value);
  /// Orders the metrics as `catalogue` does and gives them its units.
  /// Missing metrics are reported as 0 when `zero_missing` (a layer the
  /// workload does not exercise) and are a failed check otherwise.
  void Finish(const std::vector<MetricSpec>& catalogue, bool zero_missing);
  /// Counts one attempted operation; `ok` false also counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed output check: the run is then not correct.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;  ///< set by Finish
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Monotonic seconds.
double NowS();
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

/// The highest percentile with at least ten samples beyond it. With fewer
/// than 20 samples no such percentile is above the median, so the slowest
/// sample is reported instead (`percentile` = 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// Geometric mean of positive values.
double GeoMean(const std::vector<double>& values);

/// Deterministic per-input seed: SplitMix64 of (seed, index).
uint64_t DeriveSeed(uint64_t seed, uint64_t index);

/// FNV-1a fold of a checksum into a running hash (golden of a checksum set).
uint64_t FoldChecksum(uint64_t hash, uint64_t checksum);

/// Reports the folded reference checksums and, at kDefaultSeed, fails the
/// run unless they equal the golden.
void CheckGolden(const char* what, uint64_t golden, uint64_t folded,
                 const Args& args, Result* result);

// One entry point per workload; each fills every metric for its mode.
Result RunGpSerial(const Args& args);
Result RunBatchDurable(const Args& args);

/// The served probe (served.cc): adds the `net` per-layer metrics of an
/// in-process atuned under open-loop load. Runs in batch-durable's traced
/// run.
void RunServedProbe(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
