#ifndef ATUNE_SYSTEMS_DRIFTING_WORKLOAD_H_
#define ATUNE_SYSTEMS_DRIFTING_WORKLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/system.h"

namespace atune {

/// Deterministic time-varying workload schedule: how the workload a system
/// actually sees changes as a pure function of the drift clock (the run
/// index). Real deployments tune moving targets — the load grows, the query
/// mix flips at a release boundary, traffic follows the sun — and every one
/// of those families is representable here:
///
///   kRamp       gradual load growth: the scale factor ramps linearly from
///               1x to ramp_factor over ramp_runs executions, then holds.
///   kPhaseShift sudden regime change: at execution shift_at_run the scale
///               jumps by shift_factor, the workload kind optionally flips
///               (e.g. oltp -> olap), and shift_properties overlay the
///               declared properties. Before the shift, a pass-through.
///   kDiurnal    cyclic load: scale is modulated by
///               1 + amplitude * sin(2*pi * run / period).
///
/// An optional multiplicative scale jitter is drawn per run from an Rng
/// seeded with DeriveSeed(seed, run_index), mirroring the simulators' noise
/// indexing — so the jittered schedule is still a pure function of
/// (schedule, run index), independent of threading and of the wrapped
/// system's own noise stream. kNone (the default) is an exact pass-through.
struct DriftSchedule {
  enum class Kind { kNone, kRamp, kPhaseShift, kDiurnal };

  Kind kind = Kind::kNone;

  /// kRamp: final scale multiplier and the number of runs the ramp spans.
  double ramp_factor = 2.0;
  uint64_t ramp_runs = 40;

  /// kPhaseShift: first run index the shifted regime applies to, the scale
  /// multiplier it applies, the workload kind it switches to ("" = keep),
  /// and properties overlaid onto the declared ones.
  uint64_t shift_at_run = 25;
  double shift_factor = 1.6;
  std::string shift_kind;
  std::map<std::string, double> shift_properties;

  /// kDiurnal: relative amplitude in [0,1) and cycle length in runs.
  double diurnal_amplitude = 0.4;
  uint64_t diurnal_period = 32;

  /// Multiplicative per-run scale jitter: scale *= 1 + U(-j, +j) drawn from
  /// Rng(DeriveSeed(seed, run_index)). 0 = off.
  double scale_jitter = 0.0;
  uint64_t seed = 0xD21F7;

  static DriftSchedule Ramp(double factor, uint64_t runs);
  static DriftSchedule PhaseShift(uint64_t at_run, double factor,
                                  std::string kind = "");
  static DriftSchedule Diurnal(double amplitude, uint64_t period);

  /// Parses the CLI spec `name[:key=value,...]`:
  ///   ramp[:factor=2.0,runs=40]
  ///   shift[:at=25,factor=1.6,kind=olap]
  ///   diurnal[:amplitude=0.4,period=32]
  /// plus the cross-cutting keys jitter= and seed= for any kind.
  static Result<DriftSchedule> Parse(const std::string& spec);

  /// The workload the system sees at drift-clock position `run_index`.
  /// Pure: same (schedule, base, run_index) -> bitwise-identical workload.
  Workload Apply(const Workload& base, uint64_t run_index) const;

  std::string ToString() const;
};

/// Decorator that makes any TunableSystem's workload drift over time. It
/// honors the Clone(runs_ahead)/SkipRuns determinism contract of DESIGN.md
/// §6 exactly like FaultInjectingSystem: the decorator keeps its own drift
/// clock (run index), offsets it in clones, and advances it alongside the
/// inner system's noise cursor — so batched evaluation over clones commits
/// exactly the runs a serial loop would produce, and composition under
/// FaultInjectingSystem (in either nesting order) stays bit-identical.
///
/// Every execution — full run or unit run — advances the drift clock by one
/// step, mirroring the fault injector's per-execution fault stream. Unit
/// runs therefore drift *within* a composite run, which is precisely the
/// moving target adaptive tuners exist for.
///
/// Does not own the inner system unless constructed from a unique_ptr.
class DriftingWorkload : public IterativeSystem {
 public:
  DriftingWorkload(TunableSystem* inner, DriftSchedule schedule);
  DriftingWorkload(std::unique_ptr<TunableSystem> inner,
                   DriftSchedule schedule);

  std::string name() const override { return inner_->name(); }
  const ParameterSpace& space() const override { return inner_->space(); }
  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload& workload) override;
  std::map<std::string, double> Descriptors() const override {
    return inner_->Descriptors();
  }
  std::vector<std::string> MetricNames() const override {
    return inner_->MetricNames();
  }

  std::unique_ptr<TunableSystem> Clone(uint64_t runs_ahead) const override;
  void SkipRuns(uint64_t n) override {
    run_index_ += n;
    inner_->SkipRuns(n);
  }

  /// Iterative only when the wrapped system is; unit runs then drift too.
  IterativeSystem* AsIterative() override {
    return inner_->AsIterative() != nullptr ? this : nullptr;
  }
  size_t NumUnits(const Workload& workload) const override;
  Result<ExecutionResult> ExecuteUnit(const Configuration& config,
                                      const Workload& workload,
                                      size_t unit_index) override;
  double ReconfigurationCost() const override;

 private:
  std::unique_ptr<TunableSystem> owned_;
  TunableSystem* inner_;
  DriftSchedule schedule_;
  /// Drift clock: executions so far. The workload seen by execution i
  /// depends only on (schedule_, i), mirroring the simulators' noise
  /// indexing — which is what keeps Clone/SkipRuns bit-identical.
  uint64_t run_index_ = 0;
};

}  // namespace atune

#endif  // ATUNE_SYSTEMS_DRIFTING_WORKLOAD_H_
