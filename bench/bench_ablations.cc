// E7 — ablation studies for the design choices DESIGN.md calls out:
//   A1  iTuned surrogate: GP vs neural network vs none (random search)
//   A2  iTuned initialization: maximin LHS vs plain random design
//   A3  iTuned acquisition: EI vs PI vs LCB
//   A4  OtterTune: with vs without the historical repository
//   A5  COLT: exploration fraction sweep (cost-vs-gain sensitivity)
//   A6  iTuned: early abort of low-utility experiments on/off
//
// Each ablation runs several seeds on the DBMS OLAP scenario with a fixed
// experiment budget and reports the mean best objective.

#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/session.h"
#include "ml/acquisition.h"
#include "tuners/adaptive/colt.h"
#include "tuners/experiment/ituned.h"
#include "tuners/experiment/search_baselines.h"
#include "tuners/ml_tuners/ottertune.h"
#include "tuners/ml_tuners/rodd_nn.h"

namespace atune {
namespace bench {
namespace {

const size_t kSeeds = SmokeSize(5, 1);
const size_t kBudget = SmokeSize(25, 6);

struct AblationResult {
  double mean_best = 0.0;
  double mean_speedup = 0.0;
};

AblationResult RunVariant(
    const std::function<std::unique_ptr<Tuner>()>& make_tuner,
    const Workload& workload) {
  RunningStats best, speedup;
  for (size_t s = 0; s < kSeeds; ++s) {
    auto dbms = MakeDbms(200 + s);
    auto tuner = make_tuner();
    SessionOptions options;
    options.budget.max_evaluations = kBudget;
    options.seed = 900 + s;
    auto outcome = RunTuningSession(tuner.get(), dbms.get(), workload, options);
    if (!outcome.ok()) continue;
    best.Add(outcome->best_objective);
    speedup.Add(outcome->speedup_over_default);
  }
  return {best.mean(), speedup.mean()};
}

}  // namespace
}  // namespace bench
}  // namespace atune

int main() {
  using namespace atune;
  using namespace atune::bench;

  PrintHeader("E7: bench_ablations", "design-choice ablations (DESIGN.md)",
              "Each row ablates one design decision; DBMS OLAP scenario, "
              "budget 25 experiments, 5 seeds.");
  Workload workload = MakeDbmsOlapWorkload(1.0);

  TableWriter table({"ablation", "variant", "mean best objective",
                     "mean speedup"});
  auto add = [&](const std::string& ablation, const std::string& variant,
                 const AblationResult& r) {
    table.AddRow({ablation, variant, StrFormat("%.1fs", r.mean_best),
                  StrFormat("%.2fx", r.mean_speedup)});
  };

  // A1: surrogate model family.
  add("A1 surrogate", "GP (iTuned)",
      RunVariant([] { return std::make_unique<ITunedTuner>(); }, workload));
  add("A1 surrogate", "neural net (Rodd)",
      RunVariant([] { return std::make_unique<RoddNnTuner>(); }, workload));
  add("A1 surrogate", "none (random search)",
      RunVariant([] { return std::make_unique<RandomSearchTuner>(); },
                 workload));

  // A2: initialization design.
  {
    ITunedOptions lhs;  // default: maximin LHS
    ITunedOptions tiny;
    tiny.initial_design = 2;  // nearly no design, BO from cold start
    add("A2 init design", "maximin LHS (8 pts)",
        RunVariant([lhs] { return std::make_unique<ITunedTuner>(lhs); },
                   workload));
    add("A2 init design", "cold start (2 pts)",
        RunVariant([tiny] { return std::make_unique<ITunedTuner>(tiny); },
                   workload));
  }

  // A3: acquisition function.
  for (AcquisitionKind acq : {AcquisitionKind::kExpectedImprovement,
                              AcquisitionKind::kProbabilityOfImprovement,
                              AcquisitionKind::kLowerConfidenceBound}) {
    ITunedOptions options;
    options.acquisition = acq;
    add("A3 acquisition", AcquisitionName(acq),
        RunVariant(
            [options] { return std::make_unique<ITunedTuner>(options); },
            workload));
  }

  // A4: OtterTune with/without history.
  {
    add("A4 history", "with repository (3 workloads x 15 obs)",
        RunVariant([] { return std::make_unique<OtterTuneTuner>(); },
                   workload));
    // Without history: repository from a single observation of one
    // workload — mapping and ranking starve.
    add("A4 history", "starved repository (1 workload x 2 obs)",
        RunVariant(
            [] {
              auto dbms = MakeDbms(777);
              OtterTuneRepository repo = BuildOtterTuneRepository(
                  dbms.get(),
                  {MakeDbmsOltpWorkload(0.25)}, 2, 777);
              return std::make_unique<OtterTuneTuner>(std::move(repo));
            },
            workload));
  }

  // A6: iTuned early abort of low-utility experiments.
  for (double factor : {0.0, 2.0, 5.0}) {
    ITunedOptions options;
    options.early_abort_factor = factor;
    add("A6 early abort",
        factor == 0.0 ? "off" : StrFormat("abort at %.0fx incumbent", factor),
        RunVariant(
            [options] { return std::make_unique<ITunedTuner>(options); },
            workload));
  }

  // A5: COLT exploration fraction.
  for (double explore : {0.1, 0.3, 0.6}) {
    add("A5 COLT explore", StrFormat("%.0f%%", explore * 100.0),
        RunVariant(
            [explore] {
              return std::make_unique<ColtTuner>(explore, 0.15);
            },
            workload));
  }

  table.WritePretty(std::cout);
  std::printf(
      "\nExpected shapes: GP > NN > random at this budget; LHS init beats a\n"
      "cold start; EI and LCB are comparable with PI greedier; a populated\n"
      "repository beats a starved one; moderate COLT exploration beats both\n"
      "extremes.\n");
  return 0;
}
