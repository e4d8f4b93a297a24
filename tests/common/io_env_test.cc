// Tests for the injectable I/O environment (common/io_env.h): the
// deterministic fault schedules, the bounded WriteFully retry loop, and the
// previously-dead error branches of file_util's atomic publish — every
// injected fault must surface as a clean Status, never a crash or a torn
// published file.

#include "common/io_env.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/file_util.h"

namespace atune {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::string contents;
  Status s = IoEnv::Default()->ReadFileToString(path, &contents);
  EXPECT_TRUE(s.ok()) << s.message();
  return contents;
}

TEST(IoEnvTest, DefaultRoundTrip) {
  std::string path = TempPath("io_env_roundtrip.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(AtomicWriteFile(path, "hello durable world").ok());
  EXPECT_EQ(Slurp(path), "hello durable world");
  auto size = IoEnv::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 19u);
}

TEST(IoEnvTest, ScopedInstallRestoresPrevious) {
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  EXPECT_EQ(IoEnv::Current(), IoEnv::Default());
  {
    ScopedIoEnv install(&env);
    EXPECT_EQ(IoEnv::Current(), &env);
  }
  EXPECT_EQ(IoEnv::Current(), IoEnv::Default());
}

TEST(IoEnvTest, WriteFullyReassemblesShortWrites) {
  IoFaultSchedule schedule;
  // Every write is short until the rules run out: the frame goes out in
  // halves and WriteFully must stitch it together without burning retries.
  schedule.rules.push_back({IoOpKind::kWrite, 0, IoFaultKind::kShortWrite, 3});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::string path = TempPath("io_env_short.txt");
  std::remove(path.c_str());
  std::string payload(1000, 'x');
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(Slurp(path), payload);
  EXPECT_EQ(env.injected(IoFaultKind::kShortWrite), 3u);
}

TEST(IoEnvTest, WriteFullyRetriesEintrStorm) {
  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kWrite, 0, IoFaultKind::kEintr, 3});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::string path = TempPath("io_env_eintr.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(AtomicWriteFile(path, "survives the storm").ok());
  EXPECT_EQ(Slurp(path), "survives the storm");
  EXPECT_EQ(env.injected(IoFaultKind::kEintr), 3u);
  EXPECT_EQ(env.backoffs(), 3u);
}

TEST(IoEnvTest, WriteFullyExhaustsBoundedRetries) {
  IoFaultSchedule schedule;
  // A storm longer than any retry budget: the loop must stay bounded and
  // surface kIoError instead of spinning.
  schedule.rules.push_back({IoOpKind::kWrite, 0, IoFaultKind::kEintr, 100});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::string path = TempPath("io_env_exhaust.txt");
  std::remove(path.c_str());
  Status s = AtomicWriteFile(path, "never lands");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_LE(env.injected(IoFaultKind::kEintr),
            env.retry_policy().max_attempts);
  // The publish failed cleanly: no target, no leaked temp file.
  EXPECT_EQ(IoEnv::Default()->FileSize(path).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(IoEnv::Default()->FileSize(path + ".tmp").status().code(),
            StatusCode::kNotFound);
}

TEST(IoEnvTest, EnospcIsNotRetried) {
  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kWrite, 0, IoFaultKind::kEnospc, 1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::string path = TempPath("io_env_enospc.txt");
  std::remove(path.c_str());
  Status s = AtomicWriteFile(path, "no space for this");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(env.injected(IoFaultKind::kEnospc), 1u);
  EXPECT_EQ(env.backoffs(), 0u);  // non-transient: zero retries
}

TEST(IoEnvTest, RenameFailureLeavesOldContentsIntact) {
  std::string path = TempPath("io_env_rename.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(AtomicWriteFile(path, "old contents").ok());

  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kRename, 0, IoFaultKind::kRenameFail,
                            1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);
  Status s = AtomicWriteFile(path, "new contents");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // A failed publish is invisible to readers: the old file is untouched.
  EXPECT_EQ(Slurp(path), "old contents");
}

TEST(IoEnvTest, SyncFailureDropsUnsyncedBytes) {
  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kSync, 0, IoFaultKind::kSyncFail, 1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::string path = TempPath("io_env_syncfail.txt");
  std::remove(path.c_str());
  Status s = AtomicWriteFile(path, "vanishes with the page cache");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // fsyncgate semantics: the write "succeeded" into the page cache, the
  // fsync failed, and the bytes are gone — the temp never got published.
  EXPECT_EQ(IoEnv::Default()->FileSize(path).status().code(),
            StatusCode::kNotFound);
}

TEST(IoEnvTest, RateBasedFaultsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    IoFaultSchedule schedule;
    schedule.seed = seed;
    schedule.eintr_rate = 0.3;
    schedule.short_write_rate = 0.2;
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    std::string path = TempPath("io_env_rate.txt");
    std::remove(path.c_str());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(AtomicWriteFile(path, std::string(100 + i, 'y')).ok());
    }
    return std::make_pair(env.injected(IoFaultKind::kEintr),
                          env.injected(IoFaultKind::kShortWrite));
  };
  auto a = run(7);
  auto b = run(7);
  auto c = run(8);
  EXPECT_EQ(a, b);           // same seed, same op sequence -> same faults
  EXPECT_GT(a.first + a.second, 0u);  // the rates actually fire
  EXPECT_NE(a, c);           // different seed -> different draws (w.h.p.)
}

TEST(IoEnvTest, CommitTempFilePublishesThroughEnv) {
  std::string path = TempPath("io_env_commit.txt");
  std::string tmp = path + ".tmp";
  std::remove(path.c_str());

  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kRename, 0, IoFaultKind::kRenameFail,
                            1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("streamed report", f);
  Status s = CommitTempFile(f, path);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(IoEnv::Default()->FileSize(path).status().code(),
            StatusCode::kNotFound);

  // And with the fault spent, the publish completes.
  f = std::fopen(tmp.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("streamed report", f);
  ASSERT_TRUE(CommitTempFile(f, path).ok());
  EXPECT_EQ(Slurp(path), "streamed report");
}

}  // namespace
}  // namespace atune
