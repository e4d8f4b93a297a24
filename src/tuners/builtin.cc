#include "tuners/builtin.h"

#include <memory>

#include "tuners/adaptive/adaptive_memory.h"
#include "tuners/adaptive/colt.h"
#include "tuners/adaptive/stage_retuner.h"
#include "tuners/cost_model/cost_model_tuner.h"
#include "tuners/cost_model/stmm.h"
#include "tuners/experiment/adaptive_sampling.h"
#include "tuners/experiment/ituned.h"
#include "tuners/experiment/sard.h"
#include "tuners/experiment/search_baselines.h"
#include "tuners/ml_tuners/ernest.h"
#include "tuners/ml_tuners/grey_box.h"
#include "tuners/ml_tuners/ottertune.h"
#include "tuners/ml_tuners/rodd_nn.h"
#include "tuners/rule_based/builtin_rules.h"
#include "tuners/rule_based/config_navigator.h"
#include "tuners/rule_based/rule_engine.h"
#include "tuners/rule_based/spex.h"
#include "tuners/simulation/addm.h"
#include "tuners/simulation/starfish.h"
#include "tuners/simulation/trace_simulator.h"

namespace atune {

void RegisterBuiltinTuners(TunerRegistry* registry) {
  registry->Add("rules-dbms", [] {
    return std::make_unique<RuleBasedTuner>("rules-dbms", MakeDbmsRules());
  });
  registry->Add("rules-mapreduce", [] {
    return std::make_unique<RuleBasedTuner>("rules-mapreduce",
                                            MakeMapReduceRules());
  });
  registry->Add("rules-spark", [] {
    return std::make_unique<RuleBasedTuner>("rules-spark", MakeSparkRules());
  });
  registry->Add("spex", [] { return std::make_unique<SpexTuner>(); });
  registry->Add("config-navigator",
                [] { return std::make_unique<ConfigNavigatorTuner>(); });

  registry->Add("cost-model",
                [] { return std::make_unique<CostModelTuner>(); });
  registry->Add("stmm", [] { return std::make_unique<StmmTuner>(); });

  registry->Add("trace-simulator",
                [] { return std::make_unique<TraceSimulatorTuner>(); });
  registry->Add("addm", [] { return std::make_unique<AddmTuner>(); });
  registry->Add("starfish", [] { return std::make_unique<StarfishTuner>(); });

  registry->Add("random-search",
                [] { return std::make_unique<RandomSearchTuner>(); });
  registry->Add("grid-search",
                [] { return std::make_unique<GridSearchTuner>(); });
  registry->Add("recursive-random",
                [] { return std::make_unique<RecursiveRandomSearchTuner>(); });
  registry->Add("sard", [] { return std::make_unique<SardTuner>(); });
  registry->Add("adaptive-sampling",
                [] { return std::make_unique<AdaptiveSamplingTuner>(); });
  registry->Add("ituned", [] { return std::make_unique<ITunedTuner>(); });

  registry->Add("ottertune",
                [] { return std::make_unique<OtterTuneTuner>(); });
  registry->Add("rodd-nn", [] { return std::make_unique<RoddNnTuner>(); });
  registry->Add("ernest", [] { return std::make_unique<ErnestTuner>(); });
  registry->Add("grey-box", [] { return std::make_unique<GreyBoxTuner>(); });

  registry->Add("colt", [] { return std::make_unique<ColtTuner>(); });
  registry->Add("adaptive-memory",
                [] { return std::make_unique<AdaptiveMemoryTuner>(); });
  registry->Add("stage-retuner",
                [] { return std::make_unique<StageRetunerTuner>(); });
}

}  // namespace atune
