// Per-layer self time from the span tree the library already emits
// (SessionOptions::tracer). The benchmark adds no spans inside the library.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Layer names of the attribution (README.md, "Per-layer metrics").
inline constexpr const char* kLayerUnattributed = "unattributed";
inline constexpr const char* kLayerJournalOpen = "core.journal.open";

/// Exclusive wall-clock attribution of traced library calls to layers.
///
/// Every instant of a call's wall time goes to exactly one place: the
/// innermost open span (the most recently begun one when parallel batch
/// lanes overlap), mapped to its layer. For a serial tree this is each
/// span's duration minus the part its children cover. Time inside the
/// session span that no child covers is `unattributed`; call time outside
/// the session span (journal create or recovery) is `core.journal.open`.
/// The layers therefore sum to the calls' wall time.
class LayerProfile {
 public:
  /// Adds the spans of one or more calls (one tracer per call sequence) and
  /// the calls' wall time as timed by the benchmark.
  void Add(const std::vector<atune::SpanRecord>& spans, double call_wall_s);

  double wall_s() const { return wall_s_; }
  double self_s(const std::string& layer) const;
  /// Number of finished spans with this name (zero-length replay spans
  /// included).
  uint64_t spans(const std::string& name) const;
  /// Human-readable table: layer, self seconds, share of wall.
  std::string Table() const;

 private:
  std::map<std::string, double> self_s_;
  std::map<std::string, uint64_t> spans_;
  double wall_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
