#include "core/knowledge_repo.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <dirent.h>
#include <set>

#include "common/byte_codec.h"
#include "common/file_util.h"
#include "common/io_env.h"
#include "common/random.h"
#include "common/string_util.h"
#include "ml/kmeans.h"

namespace atune {
namespace {

constexpr char kMagic[8] = {'A', 'T', 'U', 'N', 'E', 'K', 'R', 'S'};
constexpr uint32_t kVersion = 1;
/// Magic plus version: the shard's one frame starts here.
constexpr size_t kPreambleBytes = sizeof(kMagic) + 4;

void PutVec(std::string* out, const Vec& v) {
  PutU32(out, uint32_t(v.size()));
  for (double x : v) PutF64(out, x);
}

Vec GetVec(ByteReader* r) {
  uint32_t n = r->GetU32();
  // Each element is 8 bytes; reject counts the remaining bytes can't hold
  // before allocating.
  if (!r->Need(size_t(n) * 8)) return Vec();
  Vec v(n);
  for (double& x : v) x = r->GetF64();
  return v;
}

// Per-metric values of the outcome's transferable trials, non-finite
// scrubbed to 0 so sorting and summation stay well defined.
double FiniteOr0(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

KnowledgeRecord MakeKnowledgeRecord(
    const std::string& session_id, const std::string& tenant,
    const std::string& system_name, const ParameterSpace& space,
    const std::vector<std::string>& metric_names, const Workload& workload,
    uint64_t seed, uint64_t budget, const TuningOutcome& outcome) {
  KnowledgeRecord rec;
  rec.session_id = session_id;
  rec.tenant = tenant;
  rec.tuner = outcome.tuner_name;
  rec.system = system_name;
  rec.workload = workload.name;
  rec.workload_kind = workload.kind;
  rec.scale = workload.scale;
  rec.seed = seed;
  rec.budget = budget;
  rec.metric_names = metric_names;

  // Unscaled trials transfer directly; scaled probes ran a different
  // workload intensity and would skew both fingerprint and seeds.
  std::vector<const Trial*> trials;
  for (const Trial& t : outcome.history) {
    if (!t.scaled) trials.push_back(&t);
  }

  rec.fingerprint.assign(metric_names.size(), 0.0);
  if (!trials.empty()) {
    Vec column(trials.size());
    for (size_t m = 0; m < metric_names.size(); ++m) {
      for (size_t i = 0; i < trials.size(); ++i) {
        column[i] = FiniteOr0(trials[i]->result.MetricOr(metric_names[m], 0.0));
      }
      // Sorting the addends makes the mean *bitwise* invariant under any
      // permutation of the trial history (metamorphic-test contract).
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (double v : column) sum += v;
      rec.fingerprint[m] = sum / double(column.size());
    }
  }

  rec.configs.reserve(trials.size());
  rec.objectives.reserve(trials.size());
  for (const Trial* t : trials) {
    rec.configs.push_back(space.ToUnitVector(t->config));
    rec.objectives.push_back(FiniteOr0(t->objective));
  }
  return rec;
}

std::string EncodeKnowledgeRecord(const KnowledgeRecord& record) {
  std::string out(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  out.append(kFrameHeaderBytes, '\0');
  PutString(&out, record.session_id);
  PutString(&out, record.tenant);
  PutString(&out, record.tuner);
  PutString(&out, record.system);
  PutString(&out, record.workload);
  PutString(&out, record.workload_kind);
  PutF64(&out, record.scale);
  PutU64(&out, record.seed);
  PutU64(&out, record.budget);
  PutU32(&out, uint32_t(record.metric_names.size()));
  for (const std::string& m : record.metric_names) PutString(&out, m);
  PutVec(&out, record.fingerprint);
  PutU32(&out, uint32_t(record.configs.size()));
  for (const Vec& c : record.configs) PutVec(&out, c);
  PutVec(&out, record.objectives);
  SealFrame(&out, kPreambleBytes);
  return out;
}

Result<KnowledgeRecord> DecodeKnowledgeRecord(const std::string& bytes) {
  if (bytes.size() < kPreambleBytes + kFrameHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("knowledge shard: bad magic or truncated header");
  }
  if (ByteReader(bytes.data() + sizeof(kMagic), 4).GetU32() != kVersion) {
    return Status::IoError("knowledge shard: unsupported version");
  }
  size_t offset = kPreambleBytes;
  const char* payload = nullptr;
  size_t len = 0;
  FrameStatus frame = ReadFrame(bytes.data(), bytes.size(), bytes.size(),
                                &offset, &payload, &len);
  // A shard is exactly one frame: its declared length must end the file,
  // whatever the CRC says.
  if (kPreambleBytes + kFrameHeaderBytes + len != bytes.size()) {
    return Status::IoError("knowledge shard: length mismatch");
  }
  if (frame != FrameStatus::kOk) {
    return Status::IoError("knowledge shard: CRC mismatch");
  }

  ByteReader r(payload, len);
  KnowledgeRecord rec;
  rec.session_id = r.GetString();
  rec.tenant = r.GetString();
  rec.tuner = r.GetString();
  rec.system = r.GetString();
  rec.workload = r.GetString();
  rec.workload_kind = r.GetString();
  rec.scale = r.GetF64();
  rec.seed = r.GetU64();
  rec.budget = r.GetU64();
  uint32_t n_metrics = r.GetU32();
  for (uint32_t i = 0; i < n_metrics && r.ok(); ++i) {
    rec.metric_names.push_back(r.GetString());
  }
  rec.fingerprint = GetVec(&r);
  uint32_t n_configs = r.GetU32();
  for (uint32_t i = 0; i < n_configs && r.ok(); ++i) {
    rec.configs.push_back(GetVec(&r));
  }
  rec.objectives = GetVec(&r);
  if (!r.Done()) {
    return Status::IoError("knowledge shard: malformed payload");
  }
  if (rec.objectives.size() != rec.configs.size() ||
      rec.fingerprint.size() != rec.metric_names.size()) {
    return Status::IoError("knowledge shard: inconsistent record");
  }
  return rec;
}

KnowledgeRepository::KnowledgeRepository(std::string dir)
    : dir_(std::move(dir)) {}

std::string KnowledgeRepository::ShardName(const std::string& session_id) const {
  constexpr size_t kShardBuckets = 16;
  uint32_t h = Crc32(0, session_id.data(), session_id.size());
  return StrFormat("s%zu-", size_t(h) % kShardBuckets) + session_id + ".krs";
}

Status KnowledgeRepository::Ingest(const KnowledgeRecord& record) {
  if (!ValidSessionId(record.session_id)) {
    return Status::InvalidArgument("knowledge ingest: bad session id '" +
                                   record.session_id + "'");
  }
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + dir_ + "): " + std::strerror(errno));
  }
  return AtomicWriteFile(dir_ + "/" + ShardName(record.session_id),
                         EncodeKnowledgeRecord(record));
}

std::vector<std::string> KnowledgeRepository::ListShards() const {
  std::vector<std::string> names;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return names;
  while (struct dirent* ent = ::readdir(dir)) {
    std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".krs") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Result<KnowledgeRecord> KnowledgeRepository::LoadShard(
    const std::string& filename) const {
  std::string bytes;
  Status s = IoEnv::Current()->ReadFileToString(dir_ + "/" + filename, &bytes);
  if (!s.ok()) return s;
  return DecodeKnowledgeRecord(bytes);
}

std::vector<KnowledgeRecord> KnowledgeRepository::LoadShards(
    const std::vector<std::string>& filenames, size_t* corrupt_skipped) const {
  std::vector<KnowledgeRecord> records;
  size_t skipped = 0;
  for (const std::string& name : filenames) {
    auto rec = LoadShard(name);
    if (rec.ok()) {
      records.push_back(std::move(*rec));
    } else {
      ++skipped;  // corrupt or unreadable shards are skipped, never fatal
    }
  }
  if (corrupt_skipped != nullptr) *corrupt_skipped = skipped;
  return records;
}

std::vector<KnowledgeRecord> KnowledgeRepository::LoadAll(
    size_t* corrupt_skipped) const {
  return LoadShards(ListShards(), corrupt_skipped);
}

namespace {

// Decile boundaries over the *distinct* values of one metric dimension.
// Working on distinct values (not the multiset) makes binning invariant
// under record duplication.
Vec DecileBoundaries(const std::set<double>& distinct) {
  Vec sorted(distinct.begin(), distinct.end());
  Vec bounds;
  bounds.reserve(9);
  for (size_t j = 1; j <= 9; ++j) {
    size_t idx = j * sorted.size() / 10;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    bounds.push_back(sorted[idx]);
  }
  return bounds;
}

double BinValue(const Vec& bounds, double v) {
  double bin = 0.0;
  for (double b : bounds) {
    if (v >= b) bin += 1.0;
  }
  return bin;
}

}  // namespace

WorkloadMapping MapWorkloadKnn(const std::vector<KnowledgeRecord>& records,
                               const Vec& target_fingerprint, size_t k) {
  WorkloadMapping mapping;
  const size_t dims = target_fingerprint.size();
  if (dims == 0) return mapping;

  std::vector<size_t> candidates;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].fingerprint.size() == dims) candidates.push_back(i);
  }
  if (candidates.empty()) return mapping;

  // All pruning/binning statistics come from the distinct fingerprints of
  // the queried set plus the target — a pure function of the query, so a
  // long-lived process carries no normalization state across tenants, and
  // duplicated records cannot shift boundaries.
  std::set<Vec> distinct_set;
  for (size_t i : candidates) distinct_set.insert(records[i].fingerprint);
  distinct_set.insert(target_fingerprint);
  std::vector<Vec> distinct(distinct_set.begin(), distinct_set.end());

  // Step 1: drop near-constant metrics — they cannot discriminate workloads.
  std::vector<size_t> kept;
  for (size_t d = 0; d < dims; ++d) {
    double lo = distinct[0][d], hi = distinct[0][d];
    for (const Vec& fp : distinct) {
      lo = std::min(lo, fp[d]);
      hi = std::max(hi, fp[d]);
    }
    if (hi - lo > 1e-12) kept.push_back(d);
  }

  // Step 2 (OtterTune §5.1, via ml/kmeans): cluster the standardized
  // per-metric profiles and keep the member nearest each centroid, so
  // redundant metrics don't dominate the distance. Fixed seed: the mapping
  // must be a deterministic function of the queried set.
  if (kept.size() > 2 && distinct.size() >= 2) {
    std::vector<Vec> profiles;
    profiles.reserve(kept.size());
    for (size_t d : kept) {
      Vec profile(distinct.size());
      double mean = 0.0;
      for (size_t i = 0; i < distinct.size(); ++i) mean += distinct[i][d];
      mean /= double(distinct.size());
      double var = 0.0;
      for (size_t i = 0; i < distinct.size(); ++i) {
        var += (distinct[i][d] - mean) * (distinct[i][d] - mean);
      }
      double sd = std::sqrt(var / double(distinct.size()));
      if (sd < 1e-12) sd = 1e-12;
      for (size_t i = 0; i < distinct.size(); ++i) {
        profile[i] = (distinct[i][d] - mean) / sd;
      }
      profiles.push_back(std::move(profile));
    }
    Rng rng(0x5eedULL);
    auto clustering =
        KMeansAutoK(profiles, std::min<size_t>(profiles.size(), 8), &rng);
    if (clustering.ok()) {
      std::vector<size_t> reps;
      for (size_t c = 0; c < clustering->centroids.size(); ++c) {
        double best = 0.0;
        size_t best_idx = profiles.size();
        for (size_t p = 0; p < profiles.size(); ++p) {
          if (clustering->assignments[p] != c) continue;
          double dist = 0.0;
          for (size_t i = 0; i < profiles[p].size(); ++i) {
            double diff = profiles[p][i] - clustering->centroids[c][i];
            dist += diff * diff;
          }
          if (best_idx == profiles.size() || dist < best) {
            best = dist;
            best_idx = p;
          }
        }
        if (best_idx < profiles.size()) reps.push_back(kept[best_idx]);
      }
      if (!reps.empty()) {
        std::sort(reps.begin(), reps.end());
        kept = std::move(reps);
      }
    }
  }
  mapping.metric_idx = kept;
  if (kept.empty()) return mapping;

  // Step 3: deciles-binned Euclidean distance (OtterTune §5.2).
  std::vector<Vec> bounds;
  bounds.reserve(kept.size());
  for (size_t d : kept) {
    std::set<double> values;
    for (const Vec& fp : distinct) values.insert(fp[d]);
    bounds.push_back(DecileBoundaries(values));
  }
  Vec target_bins(kept.size());
  for (size_t j = 0; j < kept.size(); ++j) {
    target_bins[j] = BinValue(bounds[j], target_fingerprint[kept[j]]);
  }

  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(candidates.size());
  for (size_t i : candidates) {
    double dist = 0.0;
    for (size_t j = 0; j < kept.size(); ++j) {
      double diff = BinValue(bounds[j], records[i].fingerprint[kept[j]]) -
                    target_bins[j];
      dist += diff * diff;
    }
    scored.emplace_back(std::sqrt(dist), i);
  }
  std::sort(scored.begin(), scored.end(),
            [&records](const std::pair<double, size_t>& a,
                       const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              if (records[a.second].session_id != records[b.second].session_id) {
                return records[a.second].session_id <
                       records[b.second].session_id;
              }
              return a.second < b.second;
            });
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    mapping.neighbors.push_back(scored[i].second);
    mapping.distances.push_back(scored[i].first);
  }
  return mapping;
}

std::vector<Vec> SelectWarmConfigs(const std::vector<KnowledgeRecord>& records,
                                   const std::vector<size_t>& neighbors,
                                   size_t dims, size_t max_configs) {
  // Per-neighbor trial order: best objective first, config bytes as a
  // deterministic tie-break.
  std::vector<std::vector<size_t>> order(neighbors.size());
  for (size_t n = 0; n < neighbors.size(); ++n) {
    const KnowledgeRecord& rec = records[neighbors[n]];
    for (size_t t = 0; t < rec.configs.size(); ++t) {
      if (rec.configs[t].size() == dims) order[n].push_back(t);
    }
    std::sort(order[n].begin(), order[n].end(), [&rec](size_t a, size_t b) {
      if (rec.objectives[a] != rec.objectives[b]) {
        return rec.objectives[a] < rec.objectives[b];
      }
      return rec.configs[a] < rec.configs[b];
    });
  }

  std::vector<Vec> selected;
  // Round-robin nearest-neighbor first: each neighbor contributes its best
  // remaining trial in turn, so one giant session can't crowd out the rest.
  for (size_t level = 0; selected.size() < max_configs; ++level) {
    bool any = false;
    for (size_t n = 0; n < neighbors.size() && selected.size() < max_configs;
         ++n) {
      if (level >= order[n].size()) continue;
      any = true;
      const Vec& config = records[neighbors[n]].configs[order[n][level]];
      if (std::find(selected.begin(), selected.end(), config) ==
          selected.end()) {
        selected.push_back(config);
      }
    }
    if (!any) break;
  }
  return selected;
}

}  // namespace atune
