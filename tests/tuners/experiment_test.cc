#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "ml/acquisition.h"
#include "tests/core/mock_system.h"
#include "tests/testing_util.h"
#include "tuners/experiment/adaptive_sampling.h"
#include "tuners/experiment/ituned.h"
#include "tuners/experiment/sard.h"
#include "tuners/experiment/search_baselines.h"

namespace atune {
namespace {

using testing_util::MakeTestDbms;
using testing_util::MockWorkload;
using testing_util::QuadraticSystem;

// A mock with one dominant knob, one weak knob, two dead knobs — for
// screening/ranking tests.
class RankedEffectSystem : public TunableSystem {
 public:
  RankedEffectSystem() {
    Status s = space_.Add(ParameterDef::Double("dominant", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("weak", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("dead1", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("dead2", 0.0, 1.0, 0.5));
    (void)s;
  }
  std::string name() const override { return "ranked-effects"; }
  const ParameterSpace& space() const override { return space_; }
  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload&) override {
    ExecutionResult r;
    r.runtime_seconds = 100.0 - 50.0 * config.DoubleOr("dominant", 0.5) -
                        5.0 * config.DoubleOr("weak", 0.5);
    return r;
  }

 private:
  ParameterSpace space_;
};

TEST(RandomSearchTest, NeverWorseThanDefaultAndSpendsBudget) {
  QuadraticSystem system;
  RandomSearchTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{20});
  Rng rng(1);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_DOUBLE_EQ(evaluator.used(), 20.0);
  EXPECT_LE(evaluator.best()->objective,
            evaluator.history().front().objective);
}

TEST(GridSearchTest, SnapsToLatticeLevels) {
  QuadraticSystem system;
  GridSearchTuner tuner(/*levels=*/3);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
  Rng rng(2);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  for (const Trial& trial : evaluator.history()) {
    double x = trial.config.DoubleOr("x", -1.0);
    EXPECT_TRUE(std::abs(x) < 1e-9 || std::abs(x - 0.5) < 1e-9 ||
                std::abs(x - 1.0) < 1e-9)
        << x;
  }
}

TEST(RecursiveRandomTest, ConvergesTowardOptimum) {
  QuadraticSystem system;
  RecursiveRandomSearchTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{40});
  Rng rng(3);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // Optimum is 10.0; RRS with 40 probes should land close.
  EXPECT_LT(evaluator.best()->objective, 11.5);
  EXPECT_NE(tuner.Report().find("shrink"), std::string::npos);
}

TEST(SardTest, RanksEffectsCorrectly) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{30});
  Rng rng(4);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  ASSERT_EQ(tuner.ranking().size(), 4u);
  EXPECT_EQ(tuner.ranking()[0], "dominant");
  EXPECT_EQ(tuner.ranking()[1], "weak");
  // Effects have the right sign: raising "dominant" lowers runtime.
  const ParameterSpace& space = system.space();
  size_t idx = 0;
  while (idx < space.dims() && space.param(idx).name() != "dominant") ++idx;
  ASSERT_LT(idx, space.dims());
  EXPECT_LT(tuner.effects()[idx], 0.0);
}

TEST(SardTest, RefinementImprovesOnScreening) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(5);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // Best possible is 100-50-5 = 45 at (1,1); screening high level is 0.85.
  EXPECT_LT(evaluator.best()->objective, 52.0);
}

TEST(SardTest, TinyBudgetDegradesGracefully) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{3});
  Rng rng(6);
  EXPECT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LE(evaluator.used(), 3.0);
}

TEST(AdaptiveSamplingTest, ImprovesOverDefault) {
  QuadraticSystem system;
  AdaptiveSamplingTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(7);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LT(evaluator.best()->objective,
            evaluator.history().front().objective);
  EXPECT_LT(evaluator.best()->objective, 13.0);
  EXPECT_NE(tuner.Report().find("exploit"), std::string::npos);
}

TEST(ITunedTest, FindsNearOptimumOnQuadratic) {
  QuadraticSystem system;
  ITunedTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(8);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // GP+EI should land within ~10% of the optimum (10.0) in 25 runs.
  EXPECT_LT(evaluator.best()->objective, 11.0);
  EXPECT_NE(tuner.Report().find("GP/ei"), std::string::npos);
}

TEST(ITunedTest, BeatsRandomSearchOnAverage) {
  double ituned_sum = 0.0, random_sum = 0.0;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    {
      QuadraticSystem system;
      ITunedTuner tuner;
      Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
      Rng rng(100 + rep);
      ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
      ituned_sum += evaluator.best()->objective;
    }
    {
      QuadraticSystem system;
      RandomSearchTuner tuner;
      Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
      Rng rng(100 + rep);
      ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
      random_sum += evaluator.best()->objective;
    }
  }
  EXPECT_LE(ituned_sum, random_sum);
}

TEST(ITunedTest, AlternativeAcquisitions) {
  for (AcquisitionKind acq : {AcquisitionKind::kProbabilityOfImprovement,
                              AcquisitionKind::kLowerConfidenceBound}) {
    QuadraticSystem system;
    ITunedOptions options;
    options.acquisition = acq;
    ITunedTuner tuner(options);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
    Rng rng(9);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok()) << AcquisitionName(acq);
    EXPECT_LT(evaluator.best()->objective, 14.0) << AcquisitionName(acq);
    EXPECT_NE(tuner.Report().find(std::string("GP/") + AcquisitionName(acq)),
              std::string::npos)
        << tuner.Report();
  }
}

TEST(ITunedTest, EarlyAbortStretchesTheBudget) {
  // With early abort, bad experiments cost a fraction of a run, so the
  // tuner fits more experiments into the same budget.
  size_t with_abort_trials = 0, without_trials = 0;
  {
    QuadraticSystem system;
    ITunedOptions options;
    options.early_abort_factor = 1.5;
    ITunedTuner tuner(options);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
    Rng rng(77);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    with_abort_trials = evaluator.history().size();
    EXPECT_LE(evaluator.used(), 15.0 + 1e-9);
    EXPECT_LT(evaluator.best()->objective, 12.0);
  }
  {
    QuadraticSystem system;
    ITunedTuner tuner;
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
    Rng rng(77);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    without_trials = evaluator.history().size();
  }
  EXPECT_GE(with_abort_trials, without_trials);
}

TEST(ITunedTest, RealDbmsWorkloadEndToEnd) {
  auto dbms = MakeTestDbms();
  Workload w = MakeDbmsOlapWorkload(0.5);
  ITunedTuner tuner;
  Evaluator evaluator(dbms.get(), w, TuningBudget{20});
  Rng rng(10);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  double default_obj = evaluator.history().front().objective;
  EXPECT_LT(evaluator.best()->objective, default_obj / 2.0);
}

TEST(ITunedTest, NonFiniteObjectiveFallsBackThenEscalates) {
  // A NaN objective on the first BO trial (the 10th, after the defaults and
  // the 8-point design) poisons every later hyper search. The first two
  // failures draw random fallbacks from the stream as the failed search
  // left it; the third escalates as kInternal. The fallbacks are pinned
  // values, so a search that advanced the stream on failure would move them.
  QuadraticSystem system;
  ITunedTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{30});
  size_t calls = 0;
  evaluator.set_objective(
      [&calls](const Configuration&, const ExecutionResult& result) {
        return ++calls == 10 ? std::numeric_limits<double>::quiet_NaN()
                             : result.runtime_seconds;
      });
  Rng rng(23);
  Status status = tuner.Tune(&evaluator, &rng);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  ASSERT_EQ(evaluator.history().size(), 12u);
  // Taken from the serial loop before the draw moved alongside the fit.
  const std::vector<Vec> want = {{0.75070970893507338, 0.44251979949541126},
                                 {0.92915546988630004, 0.12429834304096188}};
  for (size_t f = 0; f < 2; ++f) {
    Vec got = system.space().ToUnitVector(evaluator.history()[10 + f].config);
    EXPECT_EQ(got, want[f]) << "fallback " << f;
  }
}

}  // namespace
}  // namespace atune
