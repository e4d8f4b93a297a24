// Knowledge repository (DESIGN.md §14) store-level guarantees:
//
//   * shard encode/decode is a lossless round trip; any truncation, bit
//     flip, or foreign file is rejected with kIoError, never a partial record
//   * concurrent multi-writer ingest never tears a shard — after an N-thread
//     storm every published shard CRC-verifies and LoadAll sees every record
//   * a crash at EVERY mutating I/O op of an ingest leaves the store
//     readable: prior shards intact, the in-flight shard absent or complete
//   * a corrupt shard is skipped (and counted), never fatal to LoadAll
//   * workload mapping is a pure function of the queried record set — a
//     long-lived multi-tenant process carries no normalization state across
//     queries (regression companion to the PR-4 counter-leak test)

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "core/knowledge_repo.h"
#include "tests/hex_util.h"

namespace atune {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  // Start from an empty directory: tests re-run in the same TempDir.
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
  return dir;
}

KnowledgeRecord TestRecord(const std::string& id, double shift = 0.0) {
  KnowledgeRecord rec;
  rec.session_id = id;
  rec.tenant = "tenant-a";
  rec.tuner = "bayesian-gp";
  rec.system = "simulated-dbms";
  rec.workload = "olap";
  rec.workload_kind = "dbms";
  rec.scale = 1.0;
  rec.seed = 42;
  rec.budget = 20;
  rec.metric_names = {"throughput", "latency_p99", "cpu_util"};
  rec.fingerprint = {100.0 + shift, 5.0 + shift, 0.5 + shift * 0.01};
  rec.configs = {{0.25, 0.5, 0.75}, {0.1, 0.9, 0.3}};
  rec.objectives = {12.5 + shift, 14.0 + shift};
  return rec;
}

TEST(KnowledgeRepoTest, EncodeDecodeRoundTrip) {
  KnowledgeRecord rec = TestRecord("sess-rt", 3.0);
  auto decoded = DecodeKnowledgeRecord(EncodeKnowledgeRecord(rec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->session_id, rec.session_id);
  EXPECT_EQ(decoded->tenant, rec.tenant);
  EXPECT_EQ(decoded->tuner, rec.tuner);
  EXPECT_EQ(decoded->system, rec.system);
  EXPECT_EQ(decoded->workload, rec.workload);
  EXPECT_EQ(decoded->workload_kind, rec.workload_kind);
  EXPECT_EQ(decoded->scale, rec.scale);
  EXPECT_EQ(decoded->seed, rec.seed);
  EXPECT_EQ(decoded->budget, rec.budget);
  EXPECT_EQ(decoded->metric_names, rec.metric_names);
  EXPECT_EQ(decoded->fingerprint, rec.fingerprint);  // bitwise
  EXPECT_EQ(decoded->configs, rec.configs);
  EXPECT_EQ(decoded->objectives, rec.objectives);
}

// Pins the shard bytes and the shard file name: both live on disk, and a
// daemon's `.meta` sidecars list pinned shards by name.
TEST(KnowledgeRepoTest, GoldenBytesOfAShard) {
  KnowledgeRecord rec = TestRecord("sess-golden", 0.5);
  EXPECT_EQ(testing_util::HexOf(EncodeKnowledgeRecord(rec)),
            "4154554e454b525301000000"  // magic, version
            "fd0000009c31b4d5"  // frame: length, CRC
            "0b000000736573732d676f6c64656e0800000074656e616e742d610b00000062"
            "6179657369616e2d67700e00000073696d756c617465642d64626d7304000000"
            "6f6c61700400000064626d73000000000000f03f2a0000000000000014000000"
            "00000000030000000a0000007468726f7567687075740b0000006c6174656e63"
            "795f703939080000006370755f7574696c030000000000000000205940000000"
            "0000001640295c8fc2f528e03f0200000003000000000000000000d03f000000"
            "000000e03f000000000000e83f030000009a9999999999b93fcdccccccccccec"
            "3f333333333333d33f020000000000000000002a400000000000002d40");
  EXPECT_EQ(KnowledgeRepository("unused").ShardName(rec.session_id),
            "s1-sess-golden.krs");
}

TEST(KnowledgeRepoTest, DecodeRejectsEveryCorruption) {
  std::string good = EncodeKnowledgeRecord(TestRecord("sess-corrupt"));
  ASSERT_TRUE(DecodeKnowledgeRecord(good).ok());

  // Truncation at every prefix length must fail closed (never crash, never
  // a partially-filled record).
  for (size_t len = 0; len < good.size(); ++len) {
    auto r = DecodeKnowledgeRecord(good.substr(0, len));
    ASSERT_FALSE(r.ok()) << "accepted truncation at " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  // Single-bit flips across the whole shard: header flips break the frame,
  // payload flips break the CRC.
  for (size_t pos = 0; pos < good.size(); pos += 7) {
    std::string bad = good;
    bad[pos] = char(bad[pos] ^ 0x40);
    auto r = DecodeKnowledgeRecord(bad);
    ASSERT_FALSE(r.ok()) << "accepted bit flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  // Trailing garbage breaks the length framing.
  EXPECT_FALSE(DecodeKnowledgeRecord(good + "x").ok());
  // A foreign file is not a shard.
  EXPECT_FALSE(DecodeKnowledgeRecord("not a knowledge shard at all").ok());
}

TEST(KnowledgeRepoTest, IngestLoadAllRoundTrip) {
  KnowledgeRepository repo(TempDirFor("krs_roundtrip"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        repo.Ingest(TestRecord("sess-" + std::to_string(i), double(i))).ok());
  }
  size_t skipped = 99;
  std::vector<KnowledgeRecord> all = repo.LoadAll(&skipped);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(repo.ListShards().size(), 3u);
}

TEST(KnowledgeRepoTest, ReingestSameIdIsIdempotentAtomicReplace) {
  KnowledgeRepository repo(TempDirFor("krs_reingest"));
  ASSERT_TRUE(repo.Ingest(TestRecord("sess-x", 1.0)).ok());
  ASSERT_TRUE(repo.Ingest(TestRecord("sess-x", 2.0)).ok());
  std::vector<KnowledgeRecord> all = repo.LoadAll();
  ASSERT_EQ(all.size(), 1u);  // same shard path, replaced not duplicated
  EXPECT_EQ(all[0].fingerprint[0], 102.0);  // latest write wins
}

TEST(KnowledgeRepoTest, InvalidSessionIdIsRejected) {
  KnowledgeRepository repo(TempDirFor("krs_badid"));
  KnowledgeRecord rec = TestRecord("ok");
  rec.session_id = "../escape";
  EXPECT_EQ(repo.Ingest(rec).code(), StatusCode::kInvalidArgument);
  rec.session_id = "";
  EXPECT_EQ(repo.Ingest(rec).code(), StatusCode::kInvalidArgument);
  rec.session_id = std::string(200, 'a');
  EXPECT_EQ(repo.Ingest(rec).code(), StatusCode::kInvalidArgument);
  // Admission's rule: "." and ".." name directories, not shards.
  rec.session_id = ".";
  EXPECT_EQ(repo.Ingest(rec).code(), StatusCode::kInvalidArgument);
  rec.session_id = "..";
  EXPECT_EQ(repo.Ingest(rec).code(), StatusCode::kInvalidArgument);
}

// The multi-writer contract: distinct session ids never contend (distinct
// shard paths), so an N-thread ingest storm must land every record with
// every shard CRC-verifying — no torn or interleaved writes.
TEST(KnowledgeRepoTest, ConcurrentIngestStormNeverTearsShards) {
  const size_t kThreads = 8;
  const size_t kPerThread = 16;
  KnowledgeRepository repo(TempDirFor("krs_storm"));

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  std::atomic<size_t> failures{0};
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&repo, &failures, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        KnowledgeRecord rec =
            TestRecord(StrFormat("t%zu-s%zu", t, i), double(t * 100 + i));
        if (!repo.Ingest(rec).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every shard decodes (DecodeKnowledgeRecord re-verifies the CRC) and the
  // store holds exactly the records written.
  size_t skipped = 99;
  std::vector<KnowledgeRecord> all = repo.LoadAll(&skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(all.size(), kThreads * kPerThread);
  for (const std::string& shard : repo.ListShards()) {
    std::string bytes;
    ASSERT_TRUE(IoEnv::Default()
                    ->ReadFileToString(repo.dir() + "/" + shard, &bytes)
                    .ok());
    EXPECT_TRUE(DecodeKnowledgeRecord(bytes).ok()) << shard;
  }
}

// Crash-at-every-mutating-io-op: a forked child arms SetCrashAtIoOp(op) and
// ingests one record into a pre-populated store. Whatever op the crash
// lands on — tmp open, payload write, fsync, rename, dir fsync — the parent
// must find the store readable with zero corrupt shards: the two prior
// records intact and the in-flight one either absent or bit-complete.
TEST(KnowledgeRepoTest, CrashAtEveryIngestIoOpLeavesStoreReadable) {
  const std::string dir = TempDirFor("krs_crash");
  KnowledgeRepository repo(dir);
  ASSERT_TRUE(repo.Ingest(TestRecord("pre-0", 0.0)).ok());
  ASSERT_TRUE(repo.Ingest(TestRecord("pre-1", 1.0)).ok());
  const std::string expected_new =
      EncodeKnowledgeRecord(TestRecord("crashed", 7.0));

  bool saw_crash = false;
  bool child_completed = false;
  // An uninterrupted single-record publish performs ~6 mutating ops (open,
  // write, sync, close, rename, dir sync); sweep well past that so the last
  // probes run to completion and prove the sweep covered every op.
  for (uint64_t op = 1; op <= 12; ++op) {
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::dup2(devnull, STDERR_FILENO);
        ::close(devnull);
      }
      SetCrashAtIoOp(op);
      KnowledgeRepository child_repo(dir);
      (void)child_repo.Ingest(TestRecord("crashed", 7.0));
      ::_exit(0);
    }
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    ASSERT_TRUE(WIFEXITED(wstatus));
    if (WEXITSTATUS(wstatus) == kCrashExitCode) {
      saw_crash = true;
    } else {
      ASSERT_EQ(WEXITSTATUS(wstatus), 0);
      child_completed = true;
    }

    size_t skipped = 99;
    std::vector<KnowledgeRecord> all = repo.LoadAll(&skipped);
    EXPECT_EQ(skipped, 0u) << "corrupt shard after crash at op " << op;
    ASSERT_GE(all.size(), 2u) << "lost a pre-existing shard at op " << op;
    bool found_new = false;
    for (const KnowledgeRecord& rec : all) {
      if (rec.session_id == "crashed") {
        found_new = true;
        // If published at all, the shard is bit-complete.
        std::string bytes;
        ASSERT_TRUE(IoEnv::Default()
                        ->ReadFileToString(
                            dir + "/" + repo.ShardName("crashed"), &bytes)
                        .ok());
        EXPECT_EQ(bytes, expected_new);
      }
    }
    EXPECT_EQ(all.size(), found_new ? 3u : 2u);
    // Reset for the next crash point.
    (void)IoEnv::Default()->Unlink(dir + "/" + repo.ShardName("crashed"));
  }
  EXPECT_TRUE(saw_crash);        // the sweep hit real crash points...
  EXPECT_TRUE(child_completed);  // ...and ran past the last mutating op
}

TEST(KnowledgeRepoTest, CorruptShardIsSkippedNotFatal) {
  KnowledgeRepository repo(TempDirFor("krs_corrupt"));
  ASSERT_TRUE(repo.Ingest(TestRecord("good-0", 0.0)).ok());
  ASSERT_TRUE(repo.Ingest(TestRecord("bad-1", 1.0)).ok());

  // Stomp one shard with garbage (a partial overwrite from a buggy writer).
  {
    std::ofstream out(repo.dir() + "/" + repo.ShardName("bad-1"),
                      std::ios::binary | std::ios::trunc);
    out << "ATUNEKRS garbage after the magic";
  }
  auto bad = repo.LoadShard(repo.ShardName("bad-1"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);

  size_t skipped = 0;
  std::vector<KnowledgeRecord> all = repo.LoadAll(&skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].session_id, "good-0");
}

TEST(KnowledgeRepoTest, LoadShardsPinnedListSkipsMissingEntries) {
  KnowledgeRepository repo(TempDirFor("krs_pinned"));
  ASSERT_TRUE(repo.Ingest(TestRecord("keep", 0.0)).ok());
  size_t skipped = 0;
  std::vector<KnowledgeRecord> loaded = repo.LoadShards(
      {repo.ShardName("keep"), repo.ShardName("never-written")}, &skipped);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(loaded[0].session_id, "keep");
}

TEST(KnowledgeRepoTest, InFlightTempFilesAreNeverListed) {
  KnowledgeRepository repo(TempDirFor("krs_tmp"));
  ASSERT_TRUE(repo.Ingest(TestRecord("visible", 0.0)).ok());
  {
    std::ofstream out(repo.dir() + "/s0-inflight.krs.tmp", std::ios::binary);
    out << "half-written";
  }
  std::vector<std::string> shards = repo.ListShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], repo.ShardName("visible"));
}

// Regression companion to the PR-4 daemon counter-leak test: serving tenant
// A's mapping query must not perturb tenant B's. All pruning, deciles, and
// k-means statistics are computed per call from the queried record set, so
// the same query returns bitwise-identical results no matter what other
// tenants the process served before it — the repository object itself holds
// no normalization state to leak.
TEST(KnowledgeRepoTest, MappingCarriesNoStateAcrossTenantQueries) {
  const std::string dir = TempDirFor("krs_tenants");
  KnowledgeRepository repo(dir);
  // Tenant A: huge metric magnitudes. Tenant B: tiny ones. If any
  // normalization statistic survived a query, A's scales would shift B's
  // deciles or pruning.
  for (int i = 0; i < 5; ++i) {
    KnowledgeRecord a = TestRecord("a-" + std::to_string(i));
    a.tenant = "tenant-a";
    a.fingerprint = {1e9 + i * 1e8, 5e7 - i * 1e6, double(i)};
    ASSERT_TRUE(repo.Ingest(a).ok());
    KnowledgeRecord b = TestRecord("b-" + std::to_string(i));
    b.tenant = "tenant-b";
    b.fingerprint = {1e-3 + i * 1e-4, 2e-3 - i * 1e-4, double(i) * 1e-5};
    ASSERT_TRUE(repo.Ingest(b).ok());
  }
  std::vector<KnowledgeRecord> all = repo.LoadAll();
  std::vector<KnowledgeRecord> a_records, b_records;
  for (const KnowledgeRecord& rec : all) {
    (rec.tenant == "tenant-a" ? a_records : b_records).push_back(rec);
  }
  ASSERT_EQ(a_records.size(), 5u);
  ASSERT_EQ(b_records.size(), 5u);

  const Vec b_target = {1.5e-3, 1.7e-3, 2.5e-5};
  // Baseline: B's mapping in a process that never saw tenant A.
  WorkloadMapping baseline = MapWorkloadKnn(b_records, b_target, 3);
  ASSERT_FALSE(baseline.neighbors.empty());

  // Interleave A queries through the same repository object, re-running B's
  // query after each. Every rerun must be bitwise identical to the baseline.
  for (int round = 0; round < 3; ++round) {
    WorkloadMapping a_map =
        MapWorkloadKnn(a_records, {1.2e9, 4.9e7, 2.0}, 3);
    ASSERT_FALSE(a_map.neighbors.empty());
    WorkloadMapping again = MapWorkloadKnn(b_records, b_target, 3);
    EXPECT_EQ(again.metric_idx, baseline.metric_idx);
    EXPECT_EQ(again.neighbors, baseline.neighbors);
    EXPECT_EQ(again.distances, baseline.distances);  // bitwise
  }
}

TEST(KnowledgeRepoTest, SelectWarmConfigsIsRoundRobinBestFirstDeduped) {
  std::vector<KnowledgeRecord> records(2);
  records[0].session_id = "near";
  records[0].configs = {{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}};
  records[0].objectives = {3.0, 1.0, 2.0};  // best: (0.9,0.9)
  records[1].session_id = "far";
  records[1].configs = {{0.9, 0.9}, {0.2, 0.2}};
  records[1].objectives = {5.0, 4.0};  // best: (0.2,0.2)

  std::vector<Vec> picks = SelectWarmConfigs(records, {0, 1}, 2, 4);
  // Round-robin nearest first, best objective per neighbor, duplicates
  // ((0.9,0.9) appears in both) collapse.
  ASSERT_EQ(picks.size(), 4u);
  EXPECT_EQ(picks[0], (Vec{0.9, 0.9}));
  EXPECT_EQ(picks[1], (Vec{0.2, 0.2}));
  EXPECT_EQ(picks[2], (Vec{0.5, 0.5}));
  EXPECT_EQ(picks[3], (Vec{0.1, 0.1}));

  // Dimensionality mismatches are skipped entirely.
  EXPECT_TRUE(SelectWarmConfigs(records, {0, 1}, 3, 4).empty());
}

}  // namespace
}  // namespace atune
