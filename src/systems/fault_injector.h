#ifndef ATUNE_SYSTEMS_FAULT_INJECTOR_H_
#define ATUNE_SYSTEMS_FAULT_INJECTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"

namespace atune {

/// What the cluster does to your experiments when you are not looking.
/// Rates are per-run probabilities; each run's faults are drawn from an
/// Rng seeded with DeriveSeed(seed, run_index), so the fault sequence is a
/// pure function of (seed, run index) — independent of threading, of other
/// runs, and of the wrapped system's own noise stream. A profile with all
/// rates zero is an exact pass-through.
struct FaultProfile {
  /// Config-independent run failure (lost node, preempted container, disk
  /// hiccup): the run dies partway through and is marked transient, so the
  /// Evaluator's RobustnessPolicy may retry it.
  double transient_failure_rate = 0.0;
  /// Straggler outlier: the run completes but its runtime is inflated by a
  /// multiplier drawn uniformly from [straggler_multiplier_min, _max].
  double straggler_rate = 0.0;
  double straggler_multiplier_min = 2.0;
  double straggler_multiplier_max = 8.0;
  /// Hung run: the run never finishes on its own; its runtime becomes
  /// hang_runtime_seconds and only a timeout watchdog can reclaim it.
  double hang_rate = 0.0;
  double hang_runtime_seconds = 1.0e6;
  /// Metric dropout/corruption: roughly half the result's metrics vanish
  /// and one surviving metric is scaled by a garbage factor — the run's
  /// runtime is untouched, but metric-driven (ML/diagnostic) tuners see a
  /// damaged feature vector.
  double metric_dropout_rate = 0.0;
  /// Seed of the injector's own fault stream (disjoint from the wrapped
  /// system's measurement-noise stream by construction).
  uint64_t seed = 0xFA17;

  /// One-knob profile used by the CLI and the robustness bench: `rate` is
  /// the transient-failure rate; stragglers and metric dropout occur at
  /// half of it and hangs at a fifth of it, echoing the failure mix the
  /// cloud-tuning literature reports (transient failures dominate).
  static FaultProfile FromRate(double rate, uint64_t seed = 0xFA17);
};

/// Decorator that injects faults into any TunableSystem. It honors the
/// Clone(runs_ahead)/SkipRuns determinism contract of DESIGN.md §6 — the
/// injector keeps its own run index, offsets it in clones, and advances it
/// alongside the inner system's — so batched evaluation over clones of a
/// fault-injecting system commits exactly the runs a serial loop would
/// produce. Unit-level executions (adaptive tuners) are instrumented too.
///
/// The injector does not own the inner system unless constructed from a
/// unique_ptr.
class FaultInjectingSystem : public IterativeSystem {
 public:
  FaultInjectingSystem(TunableSystem* inner, FaultProfile profile);
  FaultInjectingSystem(std::unique_ptr<TunableSystem> inner,
                       FaultProfile profile);

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

  /// Iterative only when the wrapped system is; unit runs then pass
  /// through the injector as well.
  IterativeSystem* AsIterative() override {
    return inner_->AsIterative() != nullptr ? this : nullptr;
  }
  size_t NumUnits(const Workload& workload) const override;
  Result<ExecutionResult> ExecuteUnit(const Configuration& config,
                                      const Workload& workload,
                                      size_t unit_index) override;
  double ReconfigurationCost() const override;

 private:
  /// Applies this run's fault draw (if any) to a clean inner result.
  /// `scale` shrinks the hang runtime for unit-level runs so a hung unit
  /// stays on the unit's time scale.
  ExecutionResult Inject(ExecutionResult result, double scale);

  std::unique_ptr<TunableSystem> owned_;
  TunableSystem* inner_;
  FaultProfile profile_;
  /// Runs executed so far; run i's fault draw depends only on
  /// (profile_.seed, i), mirroring the simulators' noise indexing.
  uint64_t run_index_ = 0;
};

}  // namespace atune

#endif  // ATUNE_SYSTEMS_FAULT_INJECTOR_H_
