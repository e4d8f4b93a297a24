#include "systems/system_factory.h"

#include <cmath>

#include "common/string_util.h"
#include "systems/dbms/dbms_system.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/hardware.h"
#include "systems/mapreduce/mr_system.h"
#include "systems/mapreduce/mr_workloads.h"
#include "systems/spark/spark_system.h"
#include "systems/spark/spark_workloads.h"

namespace atune {

std::map<std::string, Workload> WorkloadsForSystem(const std::string& system,
                                                   double scale) {
  if (system == "mapreduce") {
    return {{"wordcount", MakeMrWordCountWorkload(10.0 * scale)},
            {"terasort", MakeMrTeraSortWorkload(10.0 * scale)},
            {"grep", MakeMrGrepWorkload(10.0 * scale)},
            {"join", MakeMrJoinWorkload(10.0 * scale)},
            {"pagerank", MakeMrPageRankWorkload(5.0 * scale, 8)}};
  }
  if (system == "spark") {
    return {{"sql_aggregate", MakeSparkSqlAggregateWorkload(8.0 * scale)},
            {"sql_join", MakeSparkJoinWorkload(8.0 * scale)},
            {"iterative_ml", MakeSparkIterativeMlWorkload(4.0 * scale)},
            {"streaming", MakeSparkStreamingWorkload(64.0 * scale)}};
  }
  return {{"olap", MakeDbmsOlapWorkload(scale)},
          {"oltp", MakeDbmsOltpWorkload(scale)},
          {"mixed", MakeDbmsMixedWorkload(scale)}};
}

Result<std::unique_ptr<TunableSystem>> MakeSystemByName(
    const std::string& system, size_t nodes, uint64_t seed) {
  if (nodes > kMaxNodes) {
    return Status::InvalidArgument(
        StrFormat("nodes must be at most %zu, got %zu", kMaxNodes, nodes));
  }
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 16384;
  if (system == "mapreduce") {
    node.ram_mb = 8192;
    return std::unique_ptr<TunableSystem>(std::make_unique<SimulatedMapReduce>(
        ClusterSpec::MakeUniform(nodes == 0 ? 4 : nodes, node), seed));
  }
  if (system == "spark") {
    return std::unique_ptr<TunableSystem>(std::make_unique<SimulatedSpark>(
        ClusterSpec::MakeUniform(nodes == 0 ? 4 : nodes, node), seed));
  }
  if (system == "dbms") {
    return std::unique_ptr<TunableSystem>(std::make_unique<SimulatedDbms>(
        ClusterSpec::MakeUniform(nodes == 0 ? 1 : nodes, node), seed));
  }
  return Status::InvalidArgument("unknown system '" + system + "'");
}

Result<Workload> WorkloadByName(const std::string& system,
                                const std::string& workload, double scale) {
  if (!(std::isfinite(scale) && scale > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("workload scale must be finite and positive, got %g", scale));
  }
  auto catalog = WorkloadsForSystem(system, scale);
  if (workload.empty()) return catalog.begin()->second;
  auto it = catalog.find(workload);
  if (it == catalog.end()) {
    return Status::InvalidArgument("unknown workload '" + workload +
                                   "' for system '" + system + "'");
  }
  return it->second;
}

}  // namespace atune
