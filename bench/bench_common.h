#ifndef ATUNE_BENCH_BENCH_COMMON_H_
#define ATUNE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/outcome_checksum.h"
#include "core/session.h"
#include "core/tuner.h"
#include "systems/dbms/dbms_system.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/hardware.h"
#include "systems/mapreduce/mr_system.h"
#include "systems/mapreduce/mr_workloads.h"
#include "systems/spark/spark_system.h"
#include "systems/spark/spark_workloads.h"

namespace atune {
namespace bench {

/// Standard reference hardware used by every experiment harness:
/// a 1-node 8-core/16GB box for the centralized DBMS and a 4-node cluster
/// for MapReduce/Spark (and the "parallel DBMS" of E4).
inline NodeSpec ReferenceNode() {
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 16384;
  node.disk_mbps = 200;
  node.disk_iops = 500;
  node.network_mbps = 1000;
  return node;
}

inline std::unique_ptr<SimulatedDbms> MakeDbms(uint64_t seed,
                                               size_t nodes = 1) {
  return std::make_unique<SimulatedDbms>(
      ClusterSpec::MakeUniform(nodes, ReferenceNode()), seed);
}

inline std::unique_ptr<SimulatedMapReduce> MakeMapReduce(uint64_t seed,
                                                         size_t nodes = 4) {
  return std::make_unique<SimulatedMapReduce>(
      ClusterSpec::MakeUniform(nodes, ReferenceNode()), seed);
}

inline std::unique_ptr<SimulatedSpark> MakeSpark(uint64_t seed,
                                                 size_t nodes = 4) {
  return std::make_unique<SimulatedSpark>(
      ClusterSpec::MakeUniform(nodes, ReferenceNode()), seed);
}

/// Runs fn(seed) for seeds [0, num_seeds) and returns the results in seed
/// order. With a non-null pool the replicates run concurrently on it — each
/// replicate must be self-contained (own system/evaluator/rng), which every
/// harness here already guarantees, so results are identical to the serial
/// sweep. With pool == nullptr, runs inline.
template <typename Fn>
auto RunSeedReplicates(size_t num_seeds, ThreadPool* pool, Fn fn)
    -> std::vector<decltype(fn(uint64_t{0}))> {
  using R = decltype(fn(uint64_t{0}));
  std::vector<R> out;
  out.reserve(num_seeds);
  if (pool == nullptr) {
    for (uint64_t s = 0; s < num_seeds; ++s) out.push_back(fn(s));
    return out;
  }
  std::vector<std::future<R>> futures;
  futures.reserve(num_seeds);
  for (uint64_t s = 0; s < num_seeds; ++s) {
    futures.push_back(pool->Submit([fn, s]() { return fn(s); }));
  }
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

/// Smoke mode (ATUNE_SMOKE=1, see tools/run_checks.sh --smoke): every bench
/// shrinks its sweep to a seconds-long sanity pass and skips its acceptance
/// exit-code gating — the point is "does the harness still run end to end",
/// not the paper-scale numbers.
inline bool SmokeMode() {
  const char* env = std::getenv("ATUNE_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// `full` normally, `smoke` under ATUNE_SMOKE.
inline size_t SmokeSize(size_t full, size_t smoke) {
  return SmokeMode() ? smoke : full;
}

/// Bench exit code honoring smoke mode: acceptance failures only fail the
/// binary in a full run.
inline int AcceptanceExit(bool pass) {
  return pass || SmokeMode() ? 0 : 1;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_artifact,
                        const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — reproduces %s\n", experiment.c_str(),
              paper_artifact.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace atune

#endif  // ATUNE_BENCH_BENCH_COMMON_H_
