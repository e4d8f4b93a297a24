#include "core/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "tests/hex_util.h"

namespace atune {
namespace {

JournalHeader TestHeader() {
  JournalHeader h;
  h.tuner_name = "test-tuner";
  h.system_name = "test-system";
  h.workload_name = "wl";
  h.workload_kind = "mock";
  h.workload_scale = 2.0;
  h.workload_properties = {{"clients", 32.0}, {"read_fraction", 0.6}};
  h.seed = 42;
  h.max_evaluations = 20;
  h.failure_penalty = 10.0;
  h.max_retries = 2;
  h.retry_cost_fraction = 0.5;
  h.timeout_seconds = 30.0;
  h.outlier_mad_threshold = 3.5;
  h.outlier_min_history = 5;
  h.remeasure_runs = 1;
  return h;
}

JournalRecord TestRecord(uint64_t seq) {
  JournalRecord r;
  r.kind = JournalRecordKind::kTrial;
  r.seq = seq;
  r.config.SetDouble("x", 0.125 * static_cast<double>(seq));
  r.config.SetBool("cache_on", seq % 2 == 0);
  r.config.SetInt("workers", static_cast<int64_t>(seq) + 1);
  r.config.SetString("mode", "fast");
  r.result.runtime_seconds = 10.0 + static_cast<double>(seq);
  r.result.failed = seq == 3;
  r.result.transient = seq == 3;
  r.result.failure_reason = seq == 3 ? "injected" : "";
  r.result.metrics = {{"throughput", 100.0 - seq}, {"p99", 0.5 * seq}};
  r.objective = r.result.runtime_seconds;
  r.cost = 1.0;
  r.round = seq;
  r.system_runs = seq + 1;
  r.used = static_cast<double>(seq + 1);
  r.retried_runs = seq == 3 ? 1 : 0;
  return r;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Writes a journal with `n` records and returns its path.
std::string WriteJournal(const std::string& name, size_t n) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  auto journal = TrialJournal::Create(path, TestHeader());
  EXPECT_TRUE(journal.ok()) << journal.status().message();
  for (size_t i = 0; i < n; ++i) {
    Status s = (*journal)->Append(TestRecord(i));
    EXPECT_TRUE(s.ok()) << s.message();
  }
  return path;
}

std::string Slurp(const std::string& path) {
  std::string contents;
  Status s = ReadFileToString(path, &contents);
  EXPECT_TRUE(s.ok()) << s.message();
  return contents;
}

void Overwrite(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

TEST(JournalTest, RoundTripPreservesHeaderAndRecords) {
  std::string path = WriteJournal("journal_roundtrip.wal", 5);
  std::string original = Slurp(path);
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  // Recovery must not rewrite an intact file.
  EXPECT_EQ(Slurp(path), original);
  EXPECT_TRUE(recovered->header_valid);
  EXPECT_EQ(recovered->header, TestHeader());
  EXPECT_TRUE(recovered->warnings.empty());
  ASSERT_EQ(recovered->records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const JournalRecord& rec = recovered->records[i];
    JournalRecord want = TestRecord(i);
    EXPECT_EQ(rec.seq, want.seq);
    EXPECT_EQ(rec.kind, want.kind);
    EXPECT_TRUE(rec.config == want.config);
    EXPECT_DOUBLE_EQ(rec.result.runtime_seconds, want.result.runtime_seconds);
    EXPECT_EQ(rec.result.failed, want.result.failed);
    EXPECT_EQ(rec.result.failure_reason, want.result.failure_reason);
    EXPECT_EQ(rec.result.metrics, want.result.metrics);
    EXPECT_DOUBLE_EQ(rec.objective, want.objective);
    EXPECT_DOUBLE_EQ(rec.used, want.used);
    EXPECT_EQ(rec.system_runs, want.system_runs);
    EXPECT_EQ(rec.retried_runs, want.retried_runs);
  }
  // The recovered journal continues the sequence.
  ASSERT_NE(recovered->journal, nullptr);
  EXPECT_EQ(recovered->journal->next_seq(), 5u);
}

TEST(JournalTest, AppendAfterResumeExtendsThePrefix) {
  std::string path = WriteJournal("journal_extend.wal", 3);
  {
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok());
    ASSERT_NE(recovered->journal, nullptr);
    JournalRecord next = TestRecord(recovered->journal->next_seq());
    ASSERT_TRUE(recovered->journal->Append(next).ok());
  }
  auto again = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records.size(), 4u);
}

TEST(JournalTest, AppendRefFileByteIdenticalToAppend) {
  std::string via_append_path = TempPath("journal_append.wal");
  std::string via_ref_path = TempPath("journal_appendref.wal");
  {
    auto journal = TrialJournal::Create(via_append_path, TestHeader());
    ASSERT_TRUE(journal.ok());
    (*journal)->set_sync(false);
    for (uint64_t i = 0; i < 7; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  {
    auto journal = TrialJournal::Create(via_ref_path, TestHeader());
    ASSERT_TRUE(journal.ok());
    (*journal)->set_sync(false);
    for (uint64_t i = 0; i < 7; ++i) {
      JournalRecord rec = TestRecord(i);
      JournalRecordRef ref;
      ref.kind = rec.kind;
      ref.seq = rec.seq;
      ref.config = &rec.config;
      ref.result = &rec.result;
      ref.objective = rec.objective;
      ref.cost = rec.cost;
      ref.scaled = rec.scaled;
      ref.round = rec.round;
      ref.batch_size = rec.batch_size;
      ref.lane = rec.lane;
      ref.unit_index = rec.unit_index;
      ref.system_runs = rec.system_runs;
      ref.used = rec.used;
      ref.retried_runs = rec.retried_runs;
      ref.timed_out_runs = rec.timed_out_runs;
      ref.remeasured_runs = rec.remeasured_runs;
      ASSERT_TRUE((*journal)->AppendRef(ref).ok());
    }
  }
  std::string a, b;
  ASSERT_TRUE(ReadFileToString(via_append_path, &a).ok());
  ASSERT_TRUE(ReadFileToString(via_ref_path, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(JournalTest, MissingFileIsNotFound) {
  auto recovered = TrialJournal::OpenForResume(TempPath("journal_absent.wal"));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(JournalTest, TruncatedRecordRecoversLongestPrefix) {
  std::string path = WriteJournal("journal_trunc.wal", 4);
  std::string full = Slurp(path);
  // Chop into the last record: every cut point inside the final frame must
  // recover exactly the first 3 records.
  std::string three = Slurp(WriteJournal("journal_trunc3.wal", 3));
  for (size_t cut = three.size() + 1; cut < full.size(); cut += 7) {
    Overwrite(path, full.substr(0, cut));
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok()) << "cut=" << cut;
    EXPECT_TRUE(recovered->header_valid);
    EXPECT_EQ(recovered->records.size(), 3u) << "cut=" << cut;
    EXPECT_FALSE(recovered->warnings.empty()) << "cut=" << cut;
  }
}

TEST(JournalTest, TruncationIsPhysical) {
  std::string path = WriteJournal("journal_physical.wal", 4);
  std::string full = Slurp(path);
  Overwrite(path, full.substr(0, full.size() - 3));
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 3u);
  recovered->journal.reset();  // close before re-reading
  // The damaged tail was removed from disk, so a second recovery is clean.
  auto again = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records.size(), 3u);
  EXPECT_TRUE(again->warnings.empty());
}

TEST(JournalTest, FlippedByteStopsAtTheTornRecord) {
  std::string base = WriteJournal("journal_flip_base.wal", 5);
  std::string full = Slurp(base);
  std::string two = Slurp(WriteJournal("journal_flip2.wal", 2));
  // Corrupt a byte inside record 2's frame: records 0-1 must survive, the
  // CRC must reject record 2, and nothing after it may be trusted.
  std::string path = TempPath("journal_flip.wal");
  std::string damaged = full;
  damaged[two.size() + 12] ^= 0x40;
  Overwrite(path, damaged);
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->header_valid);
  EXPECT_EQ(recovered->records.size(), 2u);
  EXPECT_FALSE(recovered->warnings.empty());
}

TEST(JournalTest, DuplicateSeqIsRejectedAtTheDuplicate) {
  std::string path = TempPath("journal_dup.wal");
  std::remove(path.c_str());
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(TestRecord(0)).ok());
  ASSERT_TRUE((*journal)->Append(TestRecord(1)).ok());
  // A crash-and-blind-retry could append the same trial twice; the frame is
  // well-formed (valid CRC) but its seq repeats. Recovery must keep only the
  // first occurrence.
  ASSERT_TRUE((*journal)->Append(TestRecord(1)).ok());
  journal->reset();
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->records[1].seq, 1u);
  EXPECT_FALSE(recovered->warnings.empty());
}

TEST(JournalTest, SeqGapIsRejectedAtTheGap) {
  std::string path = TempPath("journal_gap.wal");
  std::remove(path.c_str());
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(TestRecord(0)).ok());
  ASSERT_TRUE((*journal)->Append(TestRecord(2)).ok());  // skips seq 1
  journal->reset();
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 1u);
}

TEST(JournalTest, EmptyFileRecoversToFreshJournal) {
  std::string path = TempPath("journal_empty.wal");
  Overwrite(path, "");
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->header_valid);
  EXPECT_TRUE(recovered->records.empty());
  EXPECT_EQ(recovered->journal, nullptr);
}

TEST(JournalTest, GarbageHeaderRecoversToFreshJournal) {
  std::string path = TempPath("journal_garbage.wal");
  Overwrite(path, "this is not a journal at all, not even close");
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->header_valid);
  EXPECT_TRUE(recovered->records.empty());
}

TEST(JournalTest, TrailingIncompleteBatchIsDropped) {
  std::string path = TempPath("journal_batch.wal");
  std::remove(path.c_str());
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  // A complete 2-lane wave, then only 2 of a 4-lane wave (crash mid-commit).
  for (uint64_t i = 0; i < 2; ++i) {
    JournalRecord r = TestRecord(i);
    r.batch_size = 2;
    r.lane = i;
    ASSERT_TRUE((*journal)->Append(r).ok());
  }
  for (uint64_t i = 0; i < 2; ++i) {
    JournalRecord r = TestRecord(2 + i);
    r.batch_size = 4;
    r.lane = i;
    ASSERT_TRUE((*journal)->Append(r).ok());
  }
  journal->reset();
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  // The half-committed wave re-executes on resume; replay must never hand a
  // batch tuner a partial wave.
  EXPECT_EQ(recovered->records.size(), 2u);
  EXPECT_FALSE(recovered->warnings.empty());
  ASSERT_NE(recovered->journal, nullptr);
  EXPECT_EQ(recovered->journal->next_seq(), 2u);
}

// Pins the on-disk bytes: the preamble (magic, version), the header frame
// and one record frame. Recovery round trips cannot see a change made alike
// to the writer and the reader.
TEST(JournalTest, GoldenBytesOfAOneRecordJournal) {
  std::string path = WriteJournal("journal_golden.wal", 1);
  std::string bytes = Slurp(path);
  EXPECT_EQ(testing_util::HexOf(bytes),
            "4154554e4557414c01000000"  // magic, version
            "ab0000000dcd32ee"  // header frame: length, CRC
            "0a000000746573742d74756e65720b000000746573742d73797374656d020000"
            "00776c040000006d6f636b00000000000000400200000007000000636c69656e"
            "747300000000000040400d000000726561645f6672616374696f6e3333333333"
            "33e33f2a00000000000000140000000000000000000000000024400200000000"
            "000000000000000000e03f0000000000003e400000000000000c400500000000"
            "0000000100000000000000"
            "df000000ada703e5"  // record frame: length, CRC
            "010000000000000000040000000800000063616368655f6f6e0201040000006d"
            "6f646503040000006661737407000000776f726b657273000100000000000000"
            "0100000078010000000000000000000000000000244000000000000000020000"
            "000300000070393900000000000000000a0000007468726f7567687075740000"
            "0000000059400000000000002440000000000000f03f00000000000000000001"
            "0000000000000000000000000000000000000000000000010000000000000000"
            "0000000000f03f000000000000000000000000000000000000000000000000");
}

TEST(JournalTest, HeaderMismatchIsDetectedByDiff) {
  JournalHeader a = TestHeader();
  JournalHeader b = TestHeader();
  EXPECT_EQ(a, b);
  b.seed = 43;
  b.max_retries = 7;
  EXPECT_NE(a, b);
  std::string diff = a.DiffString(b);
  EXPECT_NE(diff.find("seed"), std::string::npos);
  EXPECT_NE(diff.find("robustness policy"), std::string::npos);
}

}  // namespace
}  // namespace atune
