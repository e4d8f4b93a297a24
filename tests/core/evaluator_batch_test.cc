// Determinism contract of Evaluator::EvaluateBatch (DESIGN.md §6): a batch
// of k configurations must commit exactly the trials the serial loop would
// have — bit-identical configs, objectives, runtimes, costs, budget — with
// only Trial::round differing (the whole batch is one wall-clock round).
// Its durability contract (DESIGN.md §8): a journaled batch is one wave,
// group-committed with a single fsync however it returns.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/journal.h"
#include "core/tuner.h"
#include "systems/dbms/dbms_system.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/hardware.h"
#include "tests/core/mock_system.h"

namespace atune {
namespace {

std::unique_ptr<SimulatedDbms> MakeDbms(uint64_t seed) {
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 16384;
  return std::make_unique<SimulatedDbms>(ClusterSpec::MakeUniform(1, node),
                                         seed);
}

std::vector<Configuration> SampleConfigs(const ParameterSpace& space,
                                         size_t n) {
  Rng rng(7);
  std::vector<Configuration> configs;
  configs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    configs.push_back(space.RandomConfiguration(&rng));
  }
  return configs;
}

// Everything except `round` must match bitwise; EXPECT_EQ on doubles is
// deliberate — the contract is bit-identity, not tolerance.
void ExpectTrialsIdentical(const std::vector<Trial>& serial,
                           const std::vector<Trial>& batched) {
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].config == batched[i].config) << "trial " << i;
    EXPECT_EQ(serial[i].objective, batched[i].objective) << "trial " << i;
    EXPECT_EQ(serial[i].result.runtime_seconds,
              batched[i].result.runtime_seconds)
        << "trial " << i;
    EXPECT_EQ(serial[i].result.failed, batched[i].result.failed)
        << "trial " << i;
    EXPECT_EQ(serial[i].cost, batched[i].cost) << "trial " << i;
    EXPECT_EQ(serial[i].scaled, batched[i].scaled) << "trial " << i;
  }
}

TEST(EvaluatorBatchTest, BatchIdenticalToSerialLoop) {
  auto serial_system = MakeDbms(11);
  auto batch_system = MakeDbms(11);
  Workload workload = MakeDbmsOlapWorkload(0.5);
  std::vector<Configuration> configs =
      SampleConfigs(serial_system->space(), 7);

  Evaluator serial(serial_system.get(), workload, TuningBudget{10});
  for (const Configuration& c : configs) {
    ASSERT_TRUE(serial.Evaluate(c).ok());
  }

  Evaluator batched(batch_system.get(), workload, TuningBudget{10});
  auto objs = batched.EvaluateBatch(configs, /*parallelism=*/4);
  ASSERT_TRUE(objs.ok()) << objs.status().ToString();
  ASSERT_EQ(objs->size(), configs.size());

  ExpectTrialsIdentical(serial.history(), batched.history());
  EXPECT_EQ(serial.used(), batched.used());
  ASSERT_NE(serial.best(), nullptr);
  ASSERT_NE(batched.best(), nullptr);
  EXPECT_EQ(serial.best()->objective, batched.best()->objective);
  EXPECT_TRUE(serial.best()->config == batched.best()->config);
  for (size_t i = 0; i < objs->size(); ++i) {
    EXPECT_EQ((*objs)[i], serial.history()[i].objective);
  }
  // The one allowed difference: the batch was a single round.
  EXPECT_EQ(batched.history().front().round, batched.history().back().round);
  EXPECT_NE(serial.history().front().round, serial.history().back().round);
}

TEST(EvaluatorBatchTest, InterleavedBatchesMatchSerial) {
  // Serial singles and batches interleave on the same evaluator; the clone
  // run-index bookkeeping (Clone + SkipRuns) must keep the noise stream
  // aligned with a pure-serial evaluator throughout.
  auto serial_system = MakeDbms(23);
  auto batch_system = MakeDbms(23);
  Workload workload = MakeDbmsOlapWorkload(0.5);
  std::vector<Configuration> configs =
      SampleConfigs(serial_system->space(), 8);

  Evaluator serial(serial_system.get(), workload, TuningBudget{10});
  for (const Configuration& c : configs) {
    ASSERT_TRUE(serial.Evaluate(c).ok());
  }

  Evaluator mixed(batch_system.get(), workload, TuningBudget{10});
  ASSERT_TRUE(mixed.Evaluate(configs[0]).ok());
  ASSERT_TRUE(mixed
                  .EvaluateBatch({configs[1], configs[2], configs[3]},
                                 /*parallelism=*/3)
                  .ok());
  ASSERT_TRUE(mixed.Evaluate(configs[4]).ok());
  ASSERT_TRUE(mixed
                  .EvaluateBatch({configs[5], configs[6], configs[7]},
                                 /*parallelism=*/2)
                  .ok());

  ExpectTrialsIdentical(serial.history(), mixed.history());
  EXPECT_EQ(serial.used(), mixed.used());
}

TEST(EvaluatorBatchTest, BudgetExhaustionTruncatesDeterministically) {
  auto serial_system = MakeDbms(31);
  auto batch_system = MakeDbms(31);
  Workload workload = MakeDbmsOlapWorkload(0.5);
  std::vector<Configuration> configs =
      SampleConfigs(serial_system->space(), 6);

  // Serial reference under the same budget of 5: evaluates 5, then fails.
  Evaluator serial(serial_system.get(), workload, TuningBudget{5});
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(serial.Evaluate(configs[i]).ok());
  }

  Evaluator batched(batch_system.get(), workload, TuningBudget{5});
  ASSERT_TRUE(batched.Evaluate(configs[0]).ok());
  ASSERT_TRUE(batched.Evaluate(configs[1]).ok());
  // 3 budget units remain; a batch of 4 must truncate to exactly 3.
  auto objs = batched.EvaluateBatch(
      {configs[2], configs[3], configs[4], configs[5]}, /*parallelism=*/4);
  ASSERT_TRUE(objs.ok()) << objs.status().ToString();
  EXPECT_EQ(objs->size(), 3u);
  EXPECT_TRUE(batched.Exhausted());
  EXPECT_DOUBLE_EQ(batched.used(), 5.0);
  ExpectTrialsIdentical(serial.history(), batched.history());

  // With no whole unit left, a further batch is refused outright.
  auto over = batched.EvaluateBatch({configs[5]}, /*parallelism=*/2);
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batched.history().size(), 5u);
}

TEST(EvaluatorBatchTest, ValidatesWholeBatchUpFront) {
  auto system = MakeDbms(5);
  Workload workload = MakeDbmsOlapWorkload(0.5);
  std::vector<Configuration> configs = SampleConfigs(system->space(), 2);
  Configuration bad;
  bad.SetDouble("nonexistent_knob", 1.0);

  Evaluator evaluator(system.get(), workload, TuningBudget{10});
  auto objs =
      evaluator.EvaluateBatch({configs[0], bad, configs[1]}, 2);
  EXPECT_FALSE(objs.ok());
  // Nothing ran, nothing was charged: all-or-nothing validation.
  EXPECT_TRUE(evaluator.history().empty());
  EXPECT_DOUBLE_EQ(evaluator.used(), 0.0);
}

TEST(EvaluatorBatchTest, NonClonableSystemFallsBackToSerial) {
  // The mock system does not override Clone(); the batch must still run
  // (serially, on the parent) with identical accounting.
  testing_util::QuadraticSystem system;
  Evaluator evaluator(&system, testing_util::MockWorkload(), TuningBudget{4});
  Configuration c = system.space().DefaultConfiguration();
  auto objs = evaluator.EvaluateBatch({c, c, c}, /*parallelism=*/4);
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs->size(), 3u);
  EXPECT_EQ(system.executions(), 3u);
  EXPECT_DOUBLE_EQ(evaluator.used(), 3.0);
  EXPECT_EQ(evaluator.history()[0].round, evaluator.history()[2].round);
}

// A journal whose I/O goes through `env`: with an empty fault schedule, a
// FaultInjectingIoEnv is just a per-kind op counter.
std::unique_ptr<TrialJournal> CountedJournal(FaultInjectingIoEnv* env,
                                             const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  ScopedIoEnv install(env);
  JournalHeader header;
  header.tuner_name = "evaluator-batch-test";
  auto journal = TrialJournal::Create(path, header);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return journal.ok() ? std::move(*journal) : nullptr;
}

TEST(EvaluatorBatchTest, JournaledBatchIsOneFsync) {
  auto system = MakeDbms(41);
  std::vector<Configuration> configs = SampleConfigs(system->space(), 5);
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  auto journal = CountedJournal(&env, "evaluator_batch_fsync.wal");
  ASSERT_NE(journal, nullptr);
  Evaluator evaluator(system.get(), MakeDbmsOlapWorkload(0.5),
                      TuningBudget{10});
  evaluator.set_journal(journal.get());

  const uint64_t syncs = env.ops(IoOpKind::kSync);
  const uint64_t writes = env.ops(IoOpKind::kWrite);
  auto objs = evaluator.EvaluateBatch(configs, /*parallelism=*/4);
  ASSERT_TRUE(objs.ok()) << objs.status().ToString();
  EXPECT_EQ(env.ops(IoOpKind::kWrite) - writes, 5u);  // one frame per lane
  EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);    // one per wave
  EXPECT_EQ(journal->next_seq(), 5u);
}

TEST(EvaluatorBatchTest, JournaledSerialTrialsFsyncEach) {
  auto system = MakeDbms(43);
  std::vector<Configuration> configs = SampleConfigs(system->space(), 3);
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  auto journal = CountedJournal(&env, "evaluator_serial_fsync.wal");
  ASSERT_NE(journal, nullptr);
  Evaluator evaluator(system.get(), MakeDbmsOlapWorkload(0.5),
                      TuningBudget{10});
  evaluator.set_journal(journal.get());

  for (const Configuration& c : configs) {
    const uint64_t syncs = env.ops(IoOpKind::kSync);
    ASSERT_TRUE(evaluator.Evaluate(c).ok());
    EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);
  }
  EXPECT_EQ(journal->next_seq(), 3u);
}

TEST(EvaluatorBatchTest, InterruptMidWaveCommitsTheLanesSoFar) {
  auto system = MakeDbms(47);
  std::vector<Configuration> configs = SampleConfigs(system->space(), 4);
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  auto journal = CountedJournal(&env, "evaluator_interrupt_fsync.wal");
  ASSERT_NE(journal, nullptr);
  Evaluator evaluator(system.get(), MakeDbmsOlapWorkload(0.5),
                      TuningBudget{10});
  evaluator.set_journal(journal.get());
  evaluator.set_interrupt_after_records(2);

  const uint64_t syncs = env.ops(IoOpKind::kSync);
  auto objs = evaluator.EvaluateBatch(configs, /*parallelism=*/4);
  EXPECT_EQ(objs.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(evaluator.interrupted());
  EXPECT_EQ(evaluator.history().size(), 2u);
  EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);
  // That one fsync covered both lanes: nothing is left to commit.
  EXPECT_EQ(journal->next_seq(), 2u);
  ASSERT_TRUE(journal->Commit().ok());
  EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);
  // Recovery keeps whole waves only, so the two lanes re-execute on resume.
  auto recovered = TrialJournal::OpenForResume(journal->path());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->records.empty());
  ASSERT_EQ(recovered->warnings.size(), 1u);
  EXPECT_NE(recovered->warnings[0].find("dropped 2 trailing lane(s)"),
            std::string::npos)
      << recovered->warnings[0];
}

// A system whose third execution errors out (a Status, not a failed run).
class ThirdRunErrors : public testing_util::QuadraticSystem {
 public:
  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload& workload) override {
    if (executions() == 2) return Status::Internal("execution error");
    return QuadraticSystem::Execute(config, workload);
  }
};

TEST(EvaluatorBatchTest, LaneErrorCommitsTheLanesSoFar) {
  ThirdRunErrors system;
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  auto journal = CountedJournal(&env, "evaluator_lane_error_fsync.wal");
  ASSERT_NE(journal, nullptr);
  Evaluator evaluator(&system, testing_util::MockWorkload(), TuningBudget{10});
  evaluator.set_journal(journal.get());

  Configuration c = system.space().DefaultConfiguration();
  const uint64_t syncs = env.ops(IoOpKind::kSync);
  auto objs = evaluator.EvaluateBatch({c, c, c, c}, /*parallelism=*/4);
  EXPECT_EQ(objs.status().code(), StatusCode::kInternal);
  EXPECT_EQ(evaluator.history().size(), 2u);
  EXPECT_EQ(journal->next_seq(), 2u);
  EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);
  ASSERT_TRUE(journal->Commit().ok());
  EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u);
}

}  // namespace
}  // namespace atune
