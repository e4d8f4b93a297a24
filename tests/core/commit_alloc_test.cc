// Verifies the zero-allocation commit contract of DESIGN.md §11: in steady
// state — history reserved, journal frame buffer at its high-water mark,
// tracing and metrics off, default robustness policy — the Evaluator's
// commit path (CommitTail, from building the trial after its repairs
// through the journal append) performs no heap allocations. This binary
// links common/alloc_hook_override.cc, which replaces operator new/delete
// with counting versions and installs the counter into the alloc hook; the
// library itself never pays for counting.

#include <gtest/gtest.h>

#include <string>

#include "common/alloc_hook.h"
#include "core/journal.h"
#include "core/tuner.h"
#include "tests/core/mock_system.h"

namespace atune {
namespace {

using testing_util::MockWorkload;
using testing_util::QuadraticSystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CommitAlloc, HookIsInstalledInThisBinary) {
  uint64_t before = SampleAllocCount();
  // Direct operator-new call: unlike a new-expression, it cannot be elided
  // by the paired-allocation optimization.
  void* p = ::operator new(64);
  EXPECT_GT(SampleAllocCount(), before);
  ::operator delete(p);
}

TEST(CommitAlloc, SteadyStateCommitAllocatesNothing) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{24});
  JournalHeader header;
  header.tuner_name = "alloc-test";
  header.max_evaluations = 24;
  auto journal = TrialJournal::Create(TempPath("alloc.waljournal"), header);
  ASSERT_TRUE(journal.ok());
  (*journal)->set_sync(false);
  evaluator.set_journal(journal->get());

  Configuration c;
  c.SetDouble("x", 0.5);
  c.SetDouble("y", 0.5);
  // Warmup: first commits grow the history vector slack and the journal
  // frame buffer to their high-water marks.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(evaluator.Evaluate(c).ok());
  // Steady state: every commit from here on must be allocation-free.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(evaluator.Evaluate(c).ok());
    EXPECT_EQ(evaluator.last_commit_allocs(), 0u) << "trial " << i;
  }
}

TEST(CommitAlloc, SteadyStateCommitWithoutJournalAllocatesNothing) {
  QuadraticSystem system;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{16});
  Configuration c;
  c.SetDouble("x", 0.25);
  c.SetDouble("y", 0.75);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(evaluator.Evaluate(c).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(evaluator.Evaluate(c).ok());
    EXPECT_EQ(evaluator.last_commit_allocs(), 0u) << "trial " << i;
  }
}

}  // namespace
}  // namespace atune
