#include "core/journal.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"

namespace atune {
namespace {

constexpr char kMagic[8] = {'A', 'T', 'U', 'N', 'E', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;
/// Magic plus version: the header frame starts here.
constexpr size_t kPreambleBytes = sizeof(kMagic) + 4;
/// Sanity cap on one frame; a corrupt length field must not trigger a
/// gigantic allocation during recovery.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

// ---- domain-type serialization --------------------------------------------

void PutConfiguration(std::string* out, const Configuration& config) {
  PutU32(out, static_cast<uint32_t>(config.values().size()));
  for (const auto& [name, value] : config.values()) {  // sorted: std::map
    PutString(out, name);
    PutU8(out, static_cast<uint8_t>(value.index()));
    if (const auto* i = std::get_if<int64_t>(&value)) {
      PutU64(out, static_cast<uint64_t>(*i));
    } else if (const auto* d = std::get_if<double>(&value)) {
      PutF64(out, *d);
    } else if (const auto* b = std::get_if<bool>(&value)) {
      PutU8(out, *b ? 1 : 0);
    } else {
      PutString(out, std::get<std::string>(value));
    }
  }
}

bool GetConfiguration(ByteReader* in, Configuration* config) {
  uint32_t n = in->GetU32();
  for (uint32_t i = 0; i < n && in->ok(); ++i) {
    std::string name = in->GetString();
    uint8_t tag = in->GetU8();
    switch (tag) {
      case 0:
        config->SetInt(name, static_cast<int64_t>(in->GetU64()));
        break;
      case 1:
        config->SetDouble(name, in->GetF64());
        break;
      case 2:
        config->SetBool(name, in->GetU8() != 0);
        break;
      case 3:
        config->SetString(name, in->GetString());
        break;
      default:
        return false;
    }
  }
  return in->ok();
}

void PutExecutionResult(std::string* out, const ExecutionResult& result) {
  PutF64(out, result.runtime_seconds);
  PutU8(out, result.failed ? 1 : 0);
  PutU8(out, result.transient ? 1 : 0);
  PutU8(out, result.censored ? 1 : 0);
  PutString(out, result.failure_reason);
  PutU32(out, static_cast<uint32_t>(result.metrics.size()));
  for (const auto& [key, value] : result.metrics) {
    PutString(out, key);
    PutF64(out, value);
  }
}

bool GetExecutionResult(ByteReader* in, ExecutionResult* result) {
  result->runtime_seconds = in->GetF64();
  result->failed = in->GetU8() != 0;
  result->transient = in->GetU8() != 0;
  result->censored = in->GetU8() != 0;
  result->failure_reason = in->GetString();
  uint32_t n = in->GetU32();
  for (uint32_t i = 0; i < n && in->ok(); ++i) {
    std::string key = in->GetString();
    result->metrics[key] = in->GetF64();
  }
  return in->ok();
}

std::string SerializeHeader(const JournalHeader& header) {
  std::string out;
  PutString(&out, header.tuner_name);
  PutString(&out, header.system_name);
  PutString(&out, header.workload_name);
  PutString(&out, header.workload_kind);
  PutF64(&out, header.workload_scale);
  PutU32(&out, static_cast<uint32_t>(header.workload_properties.size()));
  for (const auto& [key, value] : header.workload_properties) {
    PutString(&out, key);
    PutF64(&out, value);
  }
  PutU64(&out, header.seed);
  PutU64(&out, header.max_evaluations);
  PutF64(&out, header.failure_penalty);
  PutU64(&out, header.max_retries);
  PutF64(&out, header.retry_cost_fraction);
  PutF64(&out, header.timeout_seconds);
  PutF64(&out, header.outlier_mad_threshold);
  PutU64(&out, header.outlier_min_history);
  PutU64(&out, header.remeasure_runs);
  return out;
}

bool ParseHeader(const char* payload, size_t len, JournalHeader* header) {
  ByteReader in(payload, len);
  header->tuner_name = in.GetString();
  header->system_name = in.GetString();
  header->workload_name = in.GetString();
  header->workload_kind = in.GetString();
  header->workload_scale = in.GetF64();
  uint32_t n = in.GetU32();
  for (uint32_t i = 0; i < n && in.ok(); ++i) {
    std::string key = in.GetString();
    header->workload_properties[key] = in.GetF64();
  }
  header->seed = in.GetU64();
  header->max_evaluations = in.GetU64();
  header->failure_penalty = in.GetF64();
  header->max_retries = in.GetU64();
  header->retry_cost_fraction = in.GetF64();
  header->timeout_seconds = in.GetF64();
  header->outlier_mad_threshold = in.GetF64();
  header->outlier_min_history = in.GetU64();
  header->remeasure_runs = in.GetU64();
  return in.Done();
}

void SerializeRecordInto(std::string* out, const JournalRecordRef& record) {
  PutU8(out, static_cast<uint8_t>(record.kind));
  PutU64(out, record.seq);
  PutConfiguration(out, *record.config);
  PutExecutionResult(out, *record.result);
  PutF64(out, record.objective);
  PutF64(out, record.cost);
  PutU8(out, record.scaled ? 1 : 0);
  PutU64(out, record.round);
  PutU64(out, record.batch_size);
  PutU64(out, record.lane);
  PutU64(out, record.unit_index);
  PutU64(out, record.system_runs);
  PutF64(out, record.used);
  PutU64(out, record.retried_runs);
  PutU64(out, record.timed_out_runs);
  PutU64(out, record.remeasured_runs);
}

/// Borrowing view of an owning record, for the Append -> AppendRef funnel.
JournalRecordRef RefOf(const JournalRecord& record) {
  JournalRecordRef ref;
  ref.kind = record.kind;
  ref.seq = record.seq;
  ref.config = &record.config;
  ref.result = &record.result;
  ref.objective = record.objective;
  ref.cost = record.cost;
  ref.scaled = record.scaled;
  ref.round = record.round;
  ref.batch_size = record.batch_size;
  ref.lane = record.lane;
  ref.unit_index = record.unit_index;
  ref.system_runs = record.system_runs;
  ref.used = record.used;
  ref.retried_runs = record.retried_runs;
  ref.timed_out_runs = record.timed_out_runs;
  ref.remeasured_runs = record.remeasured_runs;
  return ref;
}

bool ParseRecord(const char* payload, size_t len, JournalRecord* record) {
  ByteReader in(payload, len);
  uint8_t kind = in.GetU8();
  if (kind != static_cast<uint8_t>(JournalRecordKind::kTrial) &&
      kind != static_cast<uint8_t>(JournalRecordKind::kUnit)) {
    return false;
  }
  record->kind = static_cast<JournalRecordKind>(kind);
  record->seq = in.GetU64();
  if (!GetConfiguration(&in, &record->config)) return false;
  if (!GetExecutionResult(&in, &record->result)) return false;
  record->objective = in.GetF64();
  record->cost = in.GetF64();
  record->scaled = in.GetU8() != 0;
  record->round = in.GetU64();
  record->batch_size = in.GetU64();
  record->lane = in.GetU64();
  record->unit_index = in.GetU64();
  record->system_runs = in.GetU64();
  record->used = in.GetF64();
  record->retried_runs = in.GetU64();
  record->timed_out_runs = in.GetU64();
  record->remeasured_runs = in.GetU64();
  return in.Done();
}

}  // namespace

bool JournalHeader::operator==(const JournalHeader& other) const {
  return SerializeHeader(*this) == SerializeHeader(other);
}

std::string JournalHeader::DiffString(const JournalHeader& other) const {
  std::vector<std::string> diffs;
  auto check = [&diffs](const char* field, const std::string& a,
                        const std::string& b) {
    if (a != b) {
      diffs.push_back(StrFormat("%s ('%s' vs '%s')", field, a.c_str(),
                                b.c_str()));
    }
  };
  check("tuner", tuner_name, other.tuner_name);
  check("system", system_name, other.system_name);
  check("workload", workload_name, other.workload_name);
  check("workload kind", workload_kind, other.workload_kind);
  if (workload_scale != other.workload_scale) diffs.push_back("scale");
  if (workload_properties != other.workload_properties) {
    diffs.push_back("workload properties");
  }
  if (seed != other.seed) {
    diffs.push_back(StrFormat("seed (%llu vs %llu)",
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(other.seed)));
  }
  if (max_evaluations != other.max_evaluations) diffs.push_back("budget");
  if (failure_penalty != other.failure_penalty) {
    diffs.push_back("failure penalty");
  }
  if (max_retries != other.max_retries ||
      retry_cost_fraction != other.retry_cost_fraction ||
      timeout_seconds != other.timeout_seconds ||
      outlier_mad_threshold != other.outlier_mad_threshold ||
      outlier_min_history != other.outlier_min_history ||
      remeasure_runs != other.remeasure_runs) {
    diffs.push_back("robustness policy");
  }
  return diffs.empty() ? "identical" : Join(diffs, ", ");
}

TrialJournal::~TrialJournal() = default;

Result<std::unique_ptr<TrialJournal>> TrialJournal::Create(
    const std::string& path, const JournalHeader& header) {
  IoEnv* env = IoEnv::Current();
  auto file = env->OpenWritable(path, IoEnv::OpenMode::kTruncate);
  if (!file.ok()) return file.status();
  std::string preamble(kMagic, sizeof(kMagic));
  PutU32(&preamble, kVersion);
  AppendFrame(SerializeHeader(header), &preamble);
  Status status = WriteFully(env, file->get(), preamble.data(),
                             preamble.size());
  if (status.ok()) status = (*file)->Sync();
  // A stale degraded-marker from an earlier session must not outlive the
  // fresh journal it no longer describes.
  if (status.ok()) (void)env->Unlink(path + kDegradedSidecarSuffix);
  // A freshly created journal also needs its directory entry durable, or a
  // crash right after Create can leave no journal at all.
  if (status.ok()) status = env->SyncDir(path);
  if (!status.ok()) {
    (void)(*file)->Close();
    return status;
  }
  return std::unique_ptr<TrialJournal>(
      new TrialJournal(path, env, std::move(*file), 0, preamble.size(),
                       kPreambleBytes));
}

Result<TrialJournal::Recovered> TrialJournal::OpenForResume(
    const std::string& path) {
  IoEnv* env = IoEnv::Current();
  std::string contents;
  ATUNE_RETURN_IF_ERROR(env->ReadFileToString(path, &contents));
  const char* data = contents.data();
  const size_t size = contents.size();

  Recovered recovered;
  // Magic + version + header frame. Damage here leaves nothing to trust
  // (we cannot even verify the session fingerprint), so the whole file is
  // discarded and the caller starts a fresh journal.
  size_t offset = kPreambleBytes;
  const char* payload = nullptr;
  size_t payload_len = 0;
  bool preamble_ok =
      size >= kPreambleBytes &&
      std::memcmp(data, kMagic, sizeof(kMagic)) == 0 &&
      ByteReader(data + sizeof(kMagic), 4).GetU32() == kVersion &&
      ReadFrame(data, size, kMaxFrameBytes, &offset, &payload,
                &payload_len) == FrameStatus::kOk &&
      ParseHeader(payload, payload_len, &recovered.header);
  if (!preamble_ok) {
    recovered.header_valid = false;
    recovered.warnings.push_back(StrFormat(
        "journal '%s': unreadable magic/header (%zu bytes); discarding file "
        "and starting fresh",
        path.c_str(), size));
    return recovered;
  }
  recovered.header_valid = true;
  const size_t header_end = offset;

  // Longest valid prefix: stop at the first bad frame or sequence break.
  std::vector<size_t> record_ends;  // byte offset after record i
  while (offset < size) {
    size_t frame_start = offset;
    JournalRecord record;
    if (ReadFrame(data, size, kMaxFrameBytes, &offset, &payload,
                  &payload_len) != FrameStatus::kOk ||
        !ParseRecord(payload, payload_len, &record)) {
      recovered.warnings.push_back(StrFormat(
          "journal '%s': corrupt or torn frame at byte %zu; keeping the %zu "
          "valid records before it",
          path.c_str(), frame_start, recovered.records.size()));
      offset = frame_start;
      break;
    }
    if (record.seq != recovered.records.size()) {
      recovered.warnings.push_back(StrFormat(
          "journal '%s': record at byte %zu has sequence %llu, expected %zu "
          "(duplicate or out-of-order); truncating there",
          path.c_str(), frame_start,
          static_cast<unsigned long long>(record.seq),
          recovered.records.size()));
      offset = frame_start;
      break;
    }
    recovered.records.push_back(std::move(record));
    record_ends.push_back(offset);
  }

  // Drop a trailing incomplete batch: its lanes are written one by one and
  // committed together after the last, so a crash mid-batch can leave a
  // prefix of the wave. Replay hands a batch-aware tuner whole waves only;
  // the dropped lanes re-execute.
  size_t dropped_lanes = 0;
  while (!recovered.records.empty()) {
    const JournalRecord& last = recovered.records.back();
    if (last.kind != JournalRecordKind::kTrial || last.batch_size <= 1 ||
        last.lane + 1 == last.batch_size) {
      break;
    }
    recovered.records.pop_back();
    record_ends.pop_back();
    ++dropped_lanes;
  }
  if (dropped_lanes > 0) {
    recovered.warnings.push_back(StrFormat(
        "journal '%s': dropped %zu trailing lane(s) of an incomplete batch",
        path.c_str(), dropped_lanes));
  }

  // No surviving records: keep just the preamble + header frame.
  size_t valid_end = header_end;
  size_t last_frame_start = kPreambleBytes;
  if (!record_ends.empty()) {
    valid_end = record_ends.back();
    last_frame_start = record_ends.size() >= 2
                           ? record_ends[record_ends.size() - 2]
                           : header_end;
  }
  if (valid_end < size) {
    ATUNE_RETURN_IF_ERROR(TruncateFile(path, valid_end));
  }

  auto file = env->OpenWritable(path, IoEnv::OpenMode::kAppend);
  if (!file.ok()) return file.status();
  recovered.journal = std::unique_ptr<TrialJournal>(
      new TrialJournal(path, env, std::move(*file), recovered.records.size(),
                       valid_end, last_frame_start));
  return recovered;
}

Status TrialJournal::Append(const JournalRecord& record) {
  ATUNE_RETURN_IF_ERROR(AppendRef(RefOf(record)));
  return Commit();
}

Status TrialJournal::AppendRef(const JournalRecordRef& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open for appending");
  }
  // Serialize after a reserved frame header, then seal it in place: the
  // bytes AppendFrame would produce, without a second buffer.
  frame_buf_.clear();
  frame_buf_.append(kFrameHeaderBytes, '\0');
  SerializeRecordInto(&frame_buf_, record);
  SealFrame(&frame_buf_, 0);
  uint64_t retries = 0;
  uint64_t shorts = 0;
  Status status = WriteFully(env_, file_.get(), frame_buf_.data(),
                             frame_buf_.size(), &retries, &shorts);
  write_retries_ += retries;
  short_writes_ += shorts;
  if (!status.ok()) return DropPendingTail(std::move(status));
  written_frame_start_ = written_offset_;
  written_offset_ += frame_buf_.size();
  next_seq_ = record.seq + 1;
  return Status::OK();
}

Status TrialJournal::Commit() {
  if (written_offset_ == append_offset_) return Status::OK();
  if (sync_) {
    Status status = file_->Sync();
    if (!status.ok()) return DropPendingTail(std::move(status));
  }
  append_offset_ = written_offset_;
  last_frame_start_ = written_frame_start_;
  durable_seq_ = next_seq_;
  return Status::OK();
}

Status TrialJournal::DropPendingTail(Status status) {
  // The write failed partway, or the fsync failed — either way every byte
  // past append_offset_ is in an unknown state (fsyncgate: a failed fsync
  // may have dropped the dirty pages, and retrying it would just report
  // success on whatever survived). Restore the invariant that the on-disk
  // journal is exactly the longest valid prefix.
  Status reverify = ReverifyTail();
  if (!reverify.ok()) {
    return Status::IoError(StrFormat("%s; tail re-verify also failed: %s",
                                     status.message().c_str(),
                                     reverify.message().c_str()));
  }
  return status;
}

Status TrialJournal::ReverifyTail() {
  // The pending frames are gone whatever happens below: the truncation
  // discards them, or the journal stays closed.
  written_offset_ = append_offset_;
  written_frame_start_ = last_frame_start_;
  next_seq_ = durable_seq_;
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  // Physically discard the unverified bytes, then prove the kept tail is
  // intact by reading its final frame back and re-checking the CRC. Only
  // after both succeed is the journal re-opened for appending.
  ATUNE_RETURN_IF_ERROR(env_->Truncate(path_, append_offset_));
  {
    auto sync_handle = env_->OpenWritable(path_, IoEnv::OpenMode::kAppend);
    if (!sync_handle.ok()) return sync_handle.status();
    Status status = (*sync_handle)->Sync();
    Status close_status = (*sync_handle)->Close();
    ATUNE_RETURN_IF_ERROR(status.ok() ? close_status : status);
  }
  std::string contents;
  ATUNE_RETURN_IF_ERROR(env_->ReadFileToString(path_, &contents));
  if (contents.size() != append_offset_) {
    return Status::IoError(StrFormat(
        "journal '%s': %zu bytes on disk after truncation to %llu",
        path_.c_str(), contents.size(),
        static_cast<unsigned long long>(append_offset_)));
  }
  size_t offset = last_frame_start_;
  const char* payload = nullptr;
  size_t payload_len = 0;
  if (ReadFrame(contents.data(), contents.size(), kMaxFrameBytes, &offset,
                &payload, &payload_len) != FrameStatus::kOk ||
      offset != append_offset_) {
    return Status::IoError(StrFormat(
        "journal '%s': tail frame failed CRC re-verification after an I/O "
        "failure — durable prefix is damaged",
        path_.c_str()));
  }
  auto reopened = env_->OpenWritable(path_, IoEnv::OpenMode::kAppend);
  if (!reopened.ok()) return reopened.status();
  file_ = std::move(*reopened);
  return Status::OK();
}

}  // namespace atune
