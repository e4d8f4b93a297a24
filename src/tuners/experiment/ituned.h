#ifndef ATUNE_TUNERS_EXPERIMENT_ITUNED_H_
#define ATUNE_TUNERS_EXPERIMENT_ITUNED_H_

#include <string>

#include "core/tuner.h"
#include "ml/gaussian_process.h"

namespace atune {

/// Options for the iTuned loop.
struct ITunedOptions {
  /// Initial space-filling design size (iTuned's LHS bootstrap).
  size_t initial_design = 8;
  /// Candidate points scored by the acquisition function per iteration.
  size_t acquisition_candidates = 2000;
  /// Hyperparameter random-search budget per GP refit.
  size_t gp_hyper_budget = 24;
  /// GP kernel.
  KernelType kernel = KernelType::kMatern52;
  /// Acquisition function: expected improvement (default), probability of
  /// improvement, or the lower confidence bound.
  AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;
  /// iTuned's early abort of low-utility experiments: stop any run that
  /// exceeds `early_abort_factor` x the incumbent objective and charge only
  /// the budget actually burned. 0 disables (default, for exact
  /// comparability with the other tuners; see the A6 ablation).
  double early_abort_factor = 0.0;
  /// Experiments run per wall-clock round (iTuned §2.4's parallel
  /// experiments). With k > 1 the LHS bootstrap is evaluated k at a time
  /// and each BO round proposes k candidates via constant-liar acquisition
  /// batching before dispatching them as one Evaluator::EvaluateBatch call.
  /// Early abort is only honored in serial mode (aborting one lane of a
  /// batch would serialize the round). 1 = the exact serial loop.
  size_t parallelism = 1;
};

/// iTuned [Duan, Thummala & Babu, VLDB'09]: experiment-driven tuning with
/// a Gaussian-process response-surface model and Expected-Improvement
/// planning — i.e. Bayesian optimization over the configuration space:
///
///   1. run a maximin Latin Hypercube design of initial experiments;
///   2. fit a GP to (config, objective) observations;
///   3. run the experiment maximizing Expected Improvement; goto 2.
///
/// Objectives are log-transformed before GP fitting (runtimes are
/// positive and long-tailed, especially with failure penalties).
class ITunedTuner : public Tuner {
 public:
  explicit ITunedTuner(ITunedOptions options = {})
      : options_(std::move(options)) {}

  std::string name() const override { return "ituned"; }
  TunerCategory category() const override {
    return TunerCategory::kExperimentDriven;
  }
  Status Tune(Evaluator* evaluator, Rng* rng) override;
  void set_parallelism(size_t parallelism) override {
    options_.parallelism = parallelism;
  }
  std::string Report() const override { return report_; }

 private:
  /// Batched variant of the loop (options_.parallelism > 1): constant-liar
  /// candidate selection + EvaluateBatch dispatch.
  Status TuneBatch(Evaluator* evaluator, Rng* rng);

  ITunedOptions options_;
  std::string report_;
};

}  // namespace atune

#endif  // ATUNE_TUNERS_EXPERIMENT_ITUNED_H_
