#include "math/doe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"

namespace atune {

namespace {

// First rows of standard cyclic Plackett-Burman designs (Plackett & Burman,
// 1946). The design for N runs is built by cyclically rotating the generator
// (length N-1) and appending a final all-minus row. Only the sizes that are
// not powers of two are listed; power-of-two sizes use the Sylvester-Hadamard
// construction below, which is orthogonal by construction.
struct PbGenerator {
  size_t runs;
  const char* signs;  // '+' / '-' string of length runs-1
};

constexpr PbGenerator kCyclicGenerators[] = {
    {12, "++-+++---+-"},
    {20, "++--++++-+-+----++-"},
    {24, "+++++-+-++--++--+-+----"},
};

// Builds a Sylvester-Hadamard matrix H of order n (n a power of two) and
// converts it to a screening design: drop the first (all-ones) column, use
// the remaining n-1 columns as factors. Orthogonality of Hadamard columns
// gives a valid two-level design with n runs for up to n-1 factors.
TwoLevelDesign SylvesterDesign(size_t n, size_t num_factors) {
  std::vector<std::vector<int>> h(n, std::vector<int>(n, 1));
  for (size_t size = 1; size < n; size *= 2) {
    for (size_t r = 0; r < size; ++r) {
      for (size_t c = 0; c < size; ++c) {
        h[r + size][c] = h[r][c];
        h[r][c + size] = h[r][c];
        h[r + size][c + size] = -h[r][c];
      }
    }
  }
  TwoLevelDesign design;
  design.num_factors = num_factors;
  design.rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<int> row(num_factors);
    for (size_t c = 0; c < num_factors; ++c) row[c] = h[r][c + 1];
    design.rows.push_back(std::move(row));
  }
  return design;
}

TwoLevelDesign CyclicDesign(const PbGenerator& g, size_t num_factors) {
  size_t n = g.runs;
  std::vector<int> gen(n - 1);
  for (size_t i = 0; i < n - 1; ++i) gen[i] = g.signs[i] == '+' ? 1 : -1;
  TwoLevelDesign design;
  design.num_factors = num_factors;
  design.rows.reserve(n);
  for (size_t r = 0; r + 1 < n; ++r) {
    std::vector<int> row(num_factors);
    for (size_t c = 0; c < num_factors; ++c) row[c] = gen[(c + r) % (n - 1)];
    design.rows.push_back(std::move(row));
  }
  design.rows.emplace_back(num_factors, -1);  // final all-minus run
  return design;
}

}  // namespace

Result<TwoLevelDesign> PlackettBurman(size_t num_factors) {
  if (num_factors == 0) {
    return Status::InvalidArgument("PlackettBurman: num_factors must be > 0");
  }
  if (num_factors > 511) {
    return Status::OutOfRange(
        StrFormat("PlackettBurman supports up to 511 factors, got %zu",
                  num_factors));
  }
  // Candidate run counts: cyclic designs (12, 20, 24) and powers of two.
  // Pick the smallest valid size strictly greater than num_factors.
  size_t best_runs = 0;
  const PbGenerator* cyclic = nullptr;
  for (const auto& g : kCyclicGenerators) {
    if (g.runs > num_factors && (best_runs == 0 || g.runs < best_runs)) {
      best_runs = g.runs;
      cyclic = &g;
    }
  }
  size_t pow2 = 4;
  while (pow2 <= num_factors) pow2 *= 2;
  if (best_runs == 0 || pow2 < best_runs) {
    best_runs = pow2;
    cyclic = nullptr;
  }
  if (cyclic != nullptr) return CyclicDesign(*cyclic, num_factors);
  return SylvesterDesign(best_runs, num_factors);
}

Result<TwoLevelDesign> PlackettBurmanFoldover(size_t num_factors) {
  ATUNE_ASSIGN_OR_RETURN(TwoLevelDesign design, PlackettBurman(num_factors));
  size_t base = design.rows.size();
  design.rows.reserve(base * 2);
  for (size_t r = 0; r < base; ++r) {
    std::vector<int> mirrored = design.rows[r];
    for (int& v : mirrored) v = -v;
    design.rows.push_back(std::move(mirrored));
  }
  return design;
}

Result<std::vector<double>> MainEffects(const TwoLevelDesign& design,
                                        const std::vector<double>& responses) {
  if (responses.size() != design.rows.size()) {
    return Status::InvalidArgument(StrFormat(
        "MainEffects: %zu responses for %zu design runs", responses.size(),
        design.rows.size()));
  }
  std::vector<double> effects(design.num_factors, 0.0);
  for (size_t c = 0; c < design.num_factors; ++c) {
    double plus_sum = 0.0, minus_sum = 0.0;
    size_t plus_n = 0, minus_n = 0;
    for (size_t r = 0; r < design.rows.size(); ++r) {
      if (design.rows[r][c] > 0) {
        plus_sum += responses[r];
        ++plus_n;
      } else {
        minus_sum += responses[r];
        ++minus_n;
      }
    }
    if (plus_n == 0 || minus_n == 0) {
      effects[c] = 0.0;
    } else {
      effects[c] = plus_sum / static_cast<double>(plus_n) -
                   minus_sum / static_cast<double>(minus_n);
    }
  }
  return effects;
}

std::vector<size_t> RankByEffect(const std::vector<double>& effects) {
  std::vector<size_t> idx(effects.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&effects](size_t a, size_t b) {
    return std::abs(effects[a]) > std::abs(effects[b]);
  });
  return idx;
}

}  // namespace atune
