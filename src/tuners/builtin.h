#ifndef ATUNE_TUNERS_BUILTIN_H_
#define ATUNE_TUNERS_BUILTIN_H_

#include "core/registry.h"

namespace atune {

/// Registers every tuner in the library under its canonical name:
///
///   rule-based:        "rules-dbms", "rules-mapreduce", "rules-spark",
///                      "spex", "config-navigator"
///   cost modeling:     "cost-model", "stmm"
///   simulation-based:  "trace-simulator", "addm", "starfish"
///   experiment-driven: "random-search", "grid-search", "recursive-random",
///                      "sard", "adaptive-sampling", "ituned"
///   machine learning:  "ottertune", "rodd-nn", "ernest", "grey-box"
///   adaptive:          "colt", "adaptive-memory", "stage-retuner"
void RegisterBuiltinTuners(TunerRegistry* registry);

}  // namespace atune

#endif  // ATUNE_TUNERS_BUILTIN_H_
