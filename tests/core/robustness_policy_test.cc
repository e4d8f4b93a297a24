#include <cmath>

#include <gtest/gtest.h>

#include "core/tuner.h"
#include "tests/core/mock_system.h"

namespace atune {
namespace {

using testing_util::MockWorkload;
using testing_util::ScriptedSystem;

Configuration DefaultOf(const TunableSystem& system) {
  return system.space().DefaultConfiguration();
}

double CostSum(const Evaluator& evaluator) {
  double sum = 0.0;
  for (const Trial& t : evaluator.history()) sum += t.cost;
  return sum;
}

TEST(RobustnessPolicyTest, RetriesTransientFailureAndChargesExtra) {
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/true).Runs(10.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  auto obj = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(obj.ok());
  // The tuner sees the clean re-measurement, not the fault.
  EXPECT_DOUBLE_EQ(*obj, 10.0);
  EXPECT_FALSE(evaluator.history().back().result.failed);
  EXPECT_EQ(evaluator.retried_runs(), 1u);
  EXPECT_EQ(system.executions(), 2u);
  // 1 full run + 0.3 for the superseded attempt, all on the one trial.
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.3);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 1.3);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
}

TEST(RobustnessPolicyTest, RetriesAreBounded) {
  ScriptedSystem system;
  // Script never recovers; the last transient failure repeats forever.
  system.Fails(300.0, /*transient=*/true);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  auto obj = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(obj.ok());
  // Degrades gracefully: the failed measurement is committed, not an error.
  EXPECT_TRUE(evaluator.history().back().result.failed);
  EXPECT_EQ(evaluator.retried_runs(), 2u);  // default max_retries
  EXPECT_EQ(system.executions(), 3u);       // 1 original + 2 retries
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.6);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
}

TEST(RobustnessPolicyTest, ConfigCausedFailureIsNeverRetried) {
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/false).Runs(10.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  auto obj = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(evaluator.history().back().result.failed);
  EXPECT_EQ(evaluator.retried_runs(), 0u);
  EXPECT_EQ(system.executions(), 1u);
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.0);
}

TEST(RobustnessPolicyTest, RetryRespectsRemainingBudget) {
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/true).Runs(10.0);
  // Budget of exactly 1: the base run fits, the 0.3 retry does not.
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{1});
  auto obj = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(evaluator.history().back().result.failed);
  EXPECT_EQ(evaluator.retried_runs(), 0u);
  EXPECT_DOUBLE_EQ(evaluator.used(), 1.0);  // never overspends
}

TEST(RobustnessPolicyTest, DisabledRetriesPassFaultsThrough) {
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/true).Runs(10.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  RobustnessPolicy policy;
  policy.max_retries = 0;
  evaluator.set_robustness_policy(policy);
  auto obj = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(evaluator.history().back().result.failed);
  EXPECT_TRUE(evaluator.history().back().result.transient);
  EXPECT_EQ(system.executions(), 1u);
}

TEST(RobustnessPolicyTest, TimeoutWatchdogCensorsHungRun) {
  ScriptedSystem system;
  system.Runs(1.0e6).Runs(10.0);  // a hang, then a healthy run
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
  RobustnessPolicy policy;
  policy.timeout_seconds = 50.0;
  evaluator.set_robustness_policy(policy);

  auto hung = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(hung.ok());
  const Trial& trial = evaluator.history().back();
  EXPECT_TRUE(trial.result.censored);
  EXPECT_FALSE(trial.result.failed);
  EXPECT_DOUBLE_EQ(trial.result.runtime_seconds, 50.0);
  EXPECT_EQ(evaluator.timed_out_runs(), 1u);
  // Watched for 50s of a 1e6s run: cost floors at 0.05 of a budget unit.
  EXPECT_DOUBLE_EQ(trial.cost, 0.05);
  // Censored lower bounds never become the incumbent.
  EXPECT_EQ(evaluator.best(), nullptr);

  auto healthy = evaluator.Evaluate(DefaultOf(system));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(evaluator.history().back().result.censored);
  ASSERT_NE(evaluator.best(), nullptr);
  EXPECT_DOUBLE_EQ(evaluator.best()->objective, 10.0);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
}

TEST(RobustnessPolicyTest, TimeoutChargesObservedFraction) {
  // Under early abort the watchdog still fires first when it is the tighter
  // threshold (abort_at 0 = a plain Evaluate).
  for (double abort_at : {0.0, 100.0}) {
    SCOPED_TRACE(testing::Message() << "abort_at " << abort_at);
    ScriptedSystem system;
    system.Runs(200.0);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{5});
    RobustnessPolicy policy;
    policy.timeout_seconds = 50.0;
    evaluator.set_robustness_policy(policy);
    bool aborted = false;
    ASSERT_TRUE((abort_at > 0.0 ? evaluator.EvaluateWithEarlyAbort(
                                      DefaultOf(system), abort_at, &aborted)
                                : evaluator.Evaluate(DefaultOf(system)))
                    .ok());
    const Trial& trial = evaluator.history().back();
    // 50 of 200 seconds observed -> a quarter of a budget unit.
    EXPECT_DOUBLE_EQ(trial.cost, 0.25);
    EXPECT_EQ(evaluator.timed_out_runs(), 1u);
    EXPECT_TRUE(trial.result.censored);
    EXPECT_DOUBLE_EQ(trial.result.runtime_seconds, 50.0);
    EXPECT_EQ(trial.result.failure_reason,
              "killed by timeout watchdog after 50 s");
    EXPECT_EQ(aborted, abort_at > 0.0);
  }
}

TEST(RobustnessPolicyTest, OutlierIsRemeasuredAndMedianCommitted) {
  ScriptedSystem system;
  // Six-run history near 10s, then a 1000s straggler whose re-measurements
  // come back at 10.5s and 11s.
  system.Runs(10.0).Runs(10.2).Runs(9.8).Runs(10.1).Runs(9.9).Runs(10.3);
  system.Runs(1000.0).Runs(10.5).Runs(11.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{12});
  RobustnessPolicy policy;
  policy.outlier_mad_threshold = 3.5;
  evaluator.set_robustness_policy(policy);
  Configuration config = DefaultOf(system);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(evaluator.Evaluate(config).ok());
  EXPECT_EQ(evaluator.remeasured_runs(), 0u);

  auto obj = evaluator.Evaluate(config);
  ASSERT_TRUE(obj.ok());
  // Median of {1000, 10.5, 11} is 11: the straggler measurement is gone.
  EXPECT_DOUBLE_EQ(*obj, 11.0);
  EXPECT_EQ(evaluator.remeasured_runs(), 2u);
  // The suspicious trial carried its two extra full-cost measurements.
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 3.0);
  EXPECT_DOUBLE_EQ(evaluator.used(), 9.0);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
}

TEST(RobustnessPolicyTest, EarlyAbortRunsAreNeverRemeasured) {
  // Early abort answers a slow run with its censor, not with outlier
  // re-measurement: a 50 s run that finishes under a 100 s threshold is
  // committed as measured even though it is an outlier against ~10 s runs.
  ScriptedSystem system;
  system.Runs(10.0).Runs(10.2).Runs(9.8).Runs(10.1).Runs(9.9).Runs(10.3);
  system.Runs(50.0).Runs(10.5).Runs(11.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{12});
  RobustnessPolicy policy;
  policy.outlier_mad_threshold = 3.5;
  evaluator.set_robustness_policy(policy);
  Configuration config = DefaultOf(system);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(evaluator.Evaluate(config).ok());

  bool aborted = true;
  auto obj = evaluator.EvaluateWithEarlyAbort(config, 100.0, &aborted);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(aborted);
  EXPECT_DOUBLE_EQ(*obj, 50.0);
  EXPECT_EQ(evaluator.remeasured_runs(), 0u);
  EXPECT_EQ(system.executions(), 7u);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 1.0);
  EXPECT_DOUBLE_EQ(evaluator.used(), 7.0);
}

TEST(RobustnessPolicyTest, SamplesAreRetriedButNeverCensoredOrRemeasured) {
  // A scaled sample's runtime is not comparable to full runs, so neither
  // the watchdog nor outlier re-measurement touches it; transient retries
  // do, at the sample's fraction of a retry's cost.
  ScriptedSystem system;
  for (int i = 0; i < 6; ++i) system.Runs(10.0);
  system.Runs(1.0e6).Runs(40.0).Fails(300.0, /*transient=*/true).Runs(5.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{10});
  RobustnessPolicy policy;
  policy.timeout_seconds = 50.0;
  policy.outlier_mad_threshold = 3.5;
  evaluator.set_robustness_policy(policy);
  Configuration config = DefaultOf(system);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(evaluator.Evaluate(config).ok());

  // Past the watchdog: committed uncensored at the sample's cost.
  ASSERT_TRUE(evaluator.EvaluateScaled(config, 0.5).ok());
  const Trial& hung = evaluator.history().back();
  EXPECT_FALSE(hung.result.censored);
  EXPECT_DOUBLE_EQ(hung.result.runtime_seconds, 1.0e6);
  EXPECT_DOUBLE_EQ(hung.cost, 0.5);
  EXPECT_EQ(evaluator.timed_out_runs(), 0u);

  // Under the watchdog but an outlier against the 10 s history: kept as
  // measured, never re-measured.
  ASSERT_TRUE(evaluator.EvaluateScaled(config, 0.5).ok());
  EXPECT_DOUBLE_EQ(evaluator.history().back().result.runtime_seconds, 40.0);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 0.5);
  EXPECT_EQ(evaluator.remeasured_runs(), 0u);
  EXPECT_EQ(system.executions(), 8u);

  // A transient failure is retried; the retry costs 0.3 of the sample.
  auto retried = evaluator.EvaluateScaled(config, 0.5);
  ASSERT_TRUE(retried.ok());
  EXPECT_DOUBLE_EQ(*retried, 5.0);
  EXPECT_EQ(evaluator.retried_runs(), 1u);
  EXPECT_DOUBLE_EQ(evaluator.history().back().cost, 0.5 + 0.3 * 0.5);
  EXPECT_EQ(system.executions(), 10u);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
}

TEST(RobustnessPolicyTest, OutlierDetectionNeedsHistory) {
  ScriptedSystem system;
  system.Runs(10.0).Runs(1000.0).Runs(10.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{10});
  RobustnessPolicy policy;
  policy.outlier_mad_threshold = 3.5;  // default min history of 6 not met
  evaluator.set_robustness_policy(policy);
  Configuration config = DefaultOf(system);
  ASSERT_TRUE(evaluator.Evaluate(config).ok());
  ASSERT_TRUE(evaluator.Evaluate(config).ok());
  EXPECT_EQ(evaluator.remeasured_runs(), 0u);
  EXPECT_DOUBLE_EQ(evaluator.used(), 2.0);
}

TEST(RobustnessPolicyTest, SessionSurfacesRobustnessCounters) {
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/true).Runs(1.0e6).Runs(10.0).Runs(12.0);
  // No tuner needed: drive the evaluator directly as a session would.
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{6});
  RobustnessPolicy policy;
  policy.timeout_seconds = 100.0;
  evaluator.set_robustness_policy(policy);
  Configuration config = DefaultOf(system);
  // Run 1: transient fault, retried into the hung run, watchdog-censored.
  ASSERT_TRUE(evaluator.Evaluate(config).ok());
  // Runs 2-3: healthy.
  ASSERT_TRUE(evaluator.Evaluate(config).ok());
  ASSERT_TRUE(evaluator.Evaluate(config).ok());
  EXPECT_EQ(evaluator.retried_runs(), 1u);
  EXPECT_EQ(evaluator.timed_out_runs(), 1u);
  EXPECT_DOUBLE_EQ(CostSum(evaluator), evaluator.used());
  size_t censored = 0;
  for (const Trial& t : evaluator.history()) {
    if (t.result.censored) ++censored;
  }
  EXPECT_EQ(censored, 1u);
}

TEST(RobustnessPolicyTest, ResetSessionCountersClearsRepairActivity) {
  // Regression: an Evaluator reused across sessions used to carry one
  // session's repair counters into the next session's outcome.
  // RunTuningSession now calls ResetSessionCounters() at session start.
  ScriptedSystem system;
  system.Fails(300.0, /*transient=*/true).Runs(1.0e6).Runs(10.0);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{6});
  RobustnessPolicy policy;
  policy.timeout_seconds = 100.0;
  evaluator.set_robustness_policy(policy);
  ASSERT_TRUE(evaluator.Evaluate(DefaultOf(system)).ok());
  ASSERT_EQ(evaluator.retried_runs(), 1u);
  ASSERT_EQ(evaluator.timed_out_runs(), 1u);

  evaluator.ResetSessionCounters();
  EXPECT_EQ(evaluator.retried_runs(), 0u);
  EXPECT_EQ(evaluator.timed_out_runs(), 0u);
  EXPECT_EQ(evaluator.remeasured_runs(), 0u);
  // Only the session counters reset — history, budget and best survive.
  EXPECT_EQ(evaluator.history().size(), 1u);
  EXPECT_GT(evaluator.used(), 0.0);

  // A fresh measurement after the reset counts from zero.
  ASSERT_TRUE(evaluator.Evaluate(DefaultOf(system)).ok());
  EXPECT_EQ(evaluator.retried_runs(), 0u);
  EXPECT_EQ(evaluator.timed_out_runs(), 0u);
}

}  // namespace
}  // namespace atune
