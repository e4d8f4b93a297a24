#ifndef ATUNE_CORE_DRIFT_DETECTOR_H_
#define ATUNE_CORE_DRIFT_DETECTOR_H_

#include <cstddef>

namespace atune {

/// Knobs for the Page–Hinkley drift detector. Defaults are tuned for the
/// serve-loop objective streams of AdaptiveRetuneTuner: insensitive to
/// simulator measurement noise, firing within a handful of observations of
/// a 1.5x+ regime change.
struct DriftDetectorOptions {
  /// Insensitivity margin (in log-objective units): deviations below this
  /// per-observation drift magnitude never accumulate. Absorbs run-to-run
  /// measurement noise.
  double delta = 0.02;
  /// Firing threshold on the cumulative Page–Hinkley statistic.
  double threshold = 0.35;
  /// Observations required in the current window before a firing is
  /// allowed (warm-up for the running mean, and the post-firing cooldown —
  /// a firing restarts the window).
  size_t min_samples = 6;
  /// Lower clamp applied before taking logs (objectives are positive
  /// runtimes, but a custom objective could emit 0).
  double floor = 1e-12;
};

/// One-sided Page–Hinkley change detector over an objective sequence
/// (lower objective = better, so only *increases* — degradations — fire).
///
/// Determinism contract (the PR 5 circuit-breaker discipline, DESIGN.md
/// §15): the detector's entire state is a pure function of the sequence of
/// Observe() values and the options — no wall clock, no randomness, no
/// external inputs. AdaptiveRetuneTuner feeds it the committed trial
/// objectives in commit order, and journal replay re-serves exactly that
/// sequence, so a resumed session recomputes identical firing rounds with
/// no new journal record types.
///
/// The statistic runs on log-objectives, making the threshold
/// scale-invariant: a 2x slowdown accumulates the same evidence whether
/// runs take 40 seconds or 4000.
class DriftDetector {
 public:
  explicit DriftDetector(DriftDetectorOptions options = DriftDetectorOptions());

  /// Feeds the next objective (commit order). Returns true when drift fires
  /// at this observation; a firing restarts the detection window, so the
  /// detector never fires twice on the same evidence.
  bool Observe(double objective);

  /// Restarts the detection window (mean, statistic, sample count). The
  /// lifetime firing/observation counters are preserved.
  void Reset();

  /// Observations ever fed (across resets).
  size_t observed() const { return observed_; }
  /// Observations in the current window.
  size_t window_count() const { return window_count_; }
  /// Firings ever (lifetime).
  size_t firings() const { return firings_; }
  /// Current cumulative Page–Hinkley statistic.
  double statistic() const { return ph_; }

 private:
  DriftDetectorOptions options_;
  size_t observed_ = 0;
  size_t window_count_ = 0;
  double mean_ = 0.0;
  double ph_ = 0.0;
  size_t firings_ = 0;
};

}  // namespace atune

#endif  // ATUNE_CORE_DRIFT_DETECTOR_H_
