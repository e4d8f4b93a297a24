#include "core/tuner.h"

#include <gtest/gtest.h>

#include "tests/core/mock_system.h"

namespace atune {
namespace {

using testing_util::MockWorkload;
using testing_util::QuadraticSystem;
using testing_util::ScriptedSystem;

TEST(EvaluatorTest, EnforcesBudget) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{3});
  Configuration c = system.space().DefaultConfiguration();
  EXPECT_TRUE(evaluator.Evaluate(c).ok());
  EXPECT_TRUE(evaluator.Evaluate(c).ok());
  EXPECT_FALSE(evaluator.Exhausted());
  EXPECT_TRUE(evaluator.Evaluate(c).ok());
  EXPECT_TRUE(evaluator.Exhausted());
  auto over = evaluator.Evaluate(c);
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(system.executions(), 3u);
  EXPECT_DOUBLE_EQ(evaluator.used(), 3.0);
}

TEST(EvaluatorTest, RejectsInvalidConfiguration) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  Configuration bad;
  bad.SetDouble("x", 0.5);  // missing "y"
  EXPECT_FALSE(evaluator.Evaluate(bad).ok());
  EXPECT_EQ(system.executions(), 0u);  // never reached the system
  EXPECT_DOUBLE_EQ(evaluator.used(), 0.0);  // invalid configs cost nothing
}

TEST(EvaluatorTest, TracksBestTrial) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  Configuration good;
  good.SetDouble("x", 0.7);
  good.SetDouble("y", 0.3);
  Configuration bad;
  bad.SetDouble("x", 0.0);
  bad.SetDouble("y", 1.0);
  ASSERT_TRUE(evaluator.Evaluate(bad).ok());
  ASSERT_TRUE(evaluator.Evaluate(good).ok());
  ASSERT_TRUE(evaluator.Evaluate(bad).ok());
  ASSERT_NE(evaluator.best(), nullptr);
  EXPECT_TRUE(evaluator.best()->config == good);
  EXPECT_NEAR(evaluator.best()->objective, system.optimum(), 1e-9);
  EXPECT_EQ(evaluator.history().size(), 3u);
}

TEST(EvaluatorTest, FailurePenaltyApplied) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5},
                      /*failure_penalty=*/10.0);
  Configuration c = system.space().DefaultConfiguration();
  ExecutionResult failed;
  failed.runtime_seconds = 7.0;
  failed.failed = true;
  EXPECT_DOUBLE_EQ(evaluator.ObjectiveOf(c, failed), 70.0);
  ExecutionResult ok_run;
  ok_run.runtime_seconds = 7.0;
  EXPECT_DOUBLE_EQ(evaluator.ObjectiveOf(c, ok_run), 7.0);
}

TEST(EvaluatorTest, UnitExecutionCostsFraction) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{2});
  Configuration c = system.space().DefaultConfiguration();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(evaluator.EvaluateUnit(c, i).ok()) << i;
  }
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.0);  // 4 units of a 4-unit system
  EXPECT_EQ(system.unit_executions(), 4u);
  EXPECT_FALSE(evaluator.Exhausted());
}

TEST(EvaluatorTest, ScaledEvaluationCostsFractionAndSkipsBest) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{4});
  Configuration c = system.space().DefaultConfiguration();
  // Scaled run: cheap objective but must not become "best".
  auto scaled = evaluator.EvaluateScaled(c, 0.25);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(evaluator.best(), nullptr);
  EXPECT_DOUBLE_EQ(evaluator.used(), 0.25);
  auto full = evaluator.Evaluate(c);
  ASSERT_TRUE(full.ok());
  ASSERT_NE(evaluator.best(), nullptr);
  EXPECT_GT(evaluator.best()->objective, *scaled);
  EXPECT_TRUE(evaluator.history().front().scaled);
  EXPECT_FALSE(evaluator.history().back().scaled);
  EXPECT_FALSE(evaluator.EvaluateScaled(c, 0.0).ok());
  EXPECT_FALSE(evaluator.EvaluateScaled(c, 1.5).ok());
}

TEST(EvaluatorTest, CompositeTrialsRecorded) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{4});
  Configuration c = system.space().DefaultConfiguration();
  ExecutionResult aggregate;
  aggregate.runtime_seconds = 42.0;
  evaluator.RecordCompositeTrial(c, aggregate, 0.5);
  ASSERT_NE(evaluator.best(), nullptr);
  EXPECT_DOUBLE_EQ(evaluator.best()->objective, 42.0);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 0.5);
  // Composite trials do not consume budget by themselves.
  EXPECT_DOUBLE_EQ(evaluator.used(), 0.0);
}

TEST(EvaluatorTest, EarlyAbortCensorsAndChargesFraction) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  Configuration good;
  good.SetDouble("x", 0.7);
  good.SetDouble("y", 0.3);
  Configuration bad;
  bad.SetDouble("x", 0.0);
  bad.SetDouble("y", 1.0);  // runtime 10 + 100*(0.49+0.49) = 108
  bool aborted = false;
  // Threshold below the bad config's runtime: censored, fractional cost.
  auto obj = evaluator.EvaluateWithEarlyAbort(bad, 20.0, &aborted);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(aborted);
  EXPECT_DOUBLE_EQ(*obj, 20.0);
  EXPECT_LT(evaluator.used(), 0.5);
  EXPECT_EQ(evaluator.best(), nullptr);  // censored runs never become best
  EXPECT_TRUE(evaluator.history().back().scaled);
  // A run under the threshold completes normally at full cost.
  double used_before = evaluator.used();
  auto full = evaluator.EvaluateWithEarlyAbort(good, 20.0, &aborted);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(aborted);
  EXPECT_NEAR(*full, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(evaluator.used(), used_before + 1.0);
  ASSERT_NE(evaluator.best(), nullptr);
  EXPECT_FALSE(evaluator.EvaluateWithEarlyAbort(good, 0.0, &aborted).ok());
}

TEST(EvaluatorTest, EarlyAbortThresholdAtRuntimeRunsToCompletion) {
  // Threshold exactly equal to (and above) the runtime: the run finishes,
  // is never censored, and pays full cost.
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  Configuration good;
  good.SetDouble("x", 0.7);
  good.SetDouble("y", 0.3);  // runtime exactly 10.0
  bool aborted = true;
  auto at = evaluator.EvaluateWithEarlyAbort(good, 10.0, &aborted);
  ASSERT_TRUE(at.ok());
  EXPECT_FALSE(aborted);
  EXPECT_NEAR(*at, 10.0, 1e-9);
  EXPECT_FALSE(evaluator.history().back().result.censored);
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.0);

  aborted = true;
  auto above = evaluator.EvaluateWithEarlyAbort(good, 1.0e9, &aborted);
  ASSERT_TRUE(above.ok());
  EXPECT_FALSE(aborted);
  EXPECT_DOUBLE_EQ(evaluator.used(), 2.0);
}

TEST(EvaluatorTest, EarlyAbortDoesNotCensorFailedRuns) {
  // A run that already failed is not "aborted early" — the failure's
  // wall-clock charge stands in full and the trial stays uncensored, so
  // crashing never masquerades as a cheap censored measurement. That holds
  // when a watchdog tighter than the threshold is armed too: under early
  // abort the watchdog never censors a failed run (a plain Evaluate would).
  struct Case {
    double failed_at;
    double abort_at;
    double timeout;
  };
  for (const Case& c : {Case{300.0, 20.0, 0.0}, Case{200.0, 100.0, 50.0}}) {
    SCOPED_TRACE(testing::Message() << "timeout " << c.timeout);
    ScriptedSystem system;
    system.Fails(c.failed_at, /*transient=*/false);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
    RobustnessPolicy policy;
    policy.timeout_seconds = c.timeout;
    evaluator.set_robustness_policy(policy);
    bool aborted = true;
    auto obj = evaluator.EvaluateWithEarlyAbort(
        system.space().DefaultConfiguration(), c.abort_at, &aborted);
    ASSERT_TRUE(obj.ok());
    EXPECT_FALSE(aborted);
    const Trial& trial = evaluator.history().back();
    EXPECT_TRUE(trial.result.failed);
    EXPECT_FALSE(trial.result.censored);
    EXPECT_DOUBLE_EQ(trial.result.runtime_seconds, c.failed_at);
    EXPECT_DOUBLE_EQ(trial.cost, 1.0);
    EXPECT_DOUBLE_EQ(evaluator.used(), 1.0);
    EXPECT_EQ(evaluator.timed_out_runs(), 0u);
  }
}

TEST(EvaluatorTest, EarlyAbortCostFloorsNearExhaustion) {
  // Even an abort at a tiny observed fraction charges at least 0.05 of a
  // budget unit: detecting "this config is bad" is never free, and the
  // floor keeps a pathological tuner from probing forever on fumes.
  ScriptedSystem system;
  system.Runs(10000.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{1});
  bool aborted = false;
  auto obj = evaluator.EvaluateWithEarlyAbort(
      system.space().DefaultConfiguration(), 20.0, &aborted);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(aborted);
  // Observed fraction 20/10000 = 0.002 floors at 0.05.
  EXPECT_DOUBLE_EQ(evaluator.used(), 0.05);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 0.05);
  EXPECT_FALSE(evaluator.Exhausted());
}

TEST(EvaluatorTest, BudgetRefusalIsTerminal) {
  // Censored trials can strand a fractional budget remnant where a full
  // run no longer fits. The first refused evaluation must flip
  // Exhausted() — otherwise a tuner looping `while (!Exhausted())` around
  // a refusing Evaluate() livelocks on the remnant.
  ScriptedSystem system;
  system.Runs(10000.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{1});
  bool aborted = false;
  ASSERT_TRUE(evaluator
                  .EvaluateWithEarlyAbort(system.space().DefaultConfiguration(),
                                          20.0, &aborted)
                  .ok());
  ASSERT_TRUE(aborted);
  EXPECT_FALSE(evaluator.Exhausted());  // 0.95 of a unit still unspent
  auto refused = evaluator.Evaluate(system.space().DefaultConfiguration());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(evaluator.Exhausted());  // refusal is terminal
}

TEST(TunerCategoryTest, Names) {
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kRuleBased),
               "rule-based");
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kCostModeling),
               "cost-modeling");
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kSimulationBased),
               "simulation-based");
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kExperimentDriven),
               "experiment-driven");
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kMachineLearning),
               "machine-learning");
  EXPECT_STREQ(TunerCategoryToString(TunerCategory::kAdaptive), "adaptive");
}

}  // namespace
}  // namespace atune
