#ifndef ATUNE_CORE_OUTCOME_CHECKSUM_H_
#define ATUNE_CORE_OUTCOME_CHECKSUM_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/tuner.h"

namespace atune {

/// Bitwise-equivalence checksums over trial histories and whole session
/// outcomes. Grown in bench/bench_common.h for the durability harnesses;
/// promoted into core when atuned started reporting OutcomeChecksum over the
/// wire, so the daemon, the client, and every bench agree on one definition
/// of "bit-identical resume" (the benches' atune::bench namespace finds
/// these names by ordinary lookup).

/// FNV-1a over a byte range, seeded with `h` (offset-basis
/// kFnvOffsetBasis for a fresh hash).
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

inline uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Checksum of a trial history: config string, objective bits, cost bits.
/// Trial::round is deliberately excluded — it is the one field batching is
/// *supposed* to change.
inline uint64_t HistoryChecksum(const std::vector<Trial>& history) {
  uint64_t h = kFnvOffsetBasis;
  for (const Trial& t : history) {
    std::string cfg = t.config.ToString();
    h = Fnv1a(h, cfg.data(), cfg.size());
    uint64_t bits;
    std::memcpy(&bits, &t.objective, sizeof(bits));
    h = Fnv1a(h, &bits, sizeof(bits));
    std::memcpy(&bits, &t.cost, sizeof(bits));
    h = Fnv1a(h, &bits, sizeof(bits));
  }
  return h;
}

/// Checksum of a whole session outcome: the trial history (as above) plus
/// best config/objective, budget used, and every robustness/failure
/// counter. Two sessions with equal OutcomeChecksums made the same
/// measurements, spent the same budget, and repaired the same faults —
/// the durability harness's definition of "bit-identical resume".
/// TuningOutcome::replayed_records is deliberately excluded: it is the one
/// field resumption is *supposed* to change.
inline uint64_t OutcomeChecksum(const TuningOutcome& outcome) {
  uint64_t h = HistoryChecksum(outcome.history);
  std::string best_cfg = outcome.best_config.ToString();
  h = Fnv1a(h, best_cfg.data(), best_cfg.size());
  auto mix_double = [&h](double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    h = Fnv1a(h, &bits, sizeof(bits));
  };
  mix_double(outcome.best_objective);
  mix_double(outcome.evaluations_used);
  uint64_t counters[] = {outcome.failed_runs,   outcome.censored_runs,
                         outcome.retried_runs,  outcome.timed_out_runs,
                         outcome.remeasured_runs};
  h = Fnv1a(h, counters, sizeof(counters));
  return h;
}

}  // namespace atune

#endif  // ATUNE_CORE_OUTCOME_CHECKSUM_H_
