#include "math/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace atune {

std::vector<Vec> LatinHypercubeSamples(size_t count, size_t dims, Rng* rng) {
  std::vector<Vec> out(count, Vec(dims, 0.0));
  if (count == 0) return out;
  std::vector<size_t> perm(count);
  for (size_t d = 0; d < dims; ++d) {
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng->engine());
    for (size_t i = 0; i < count; ++i) {
      double stratum = static_cast<double>(perm[i]);
      out[i][d] = (stratum + rng->Uniform()) / static_cast<double>(count);
    }
  }
  return out;
}

std::vector<Vec> MaximinLatinHypercube(size_t count, size_t dims,
                                       size_t restarts, Rng* rng) {
  std::vector<Vec> best;
  double best_score = -1.0;
  for (size_t r = 0; r < std::max<size_t>(restarts, 1); ++r) {
    std::vector<Vec> design = LatinHypercubeSamples(count, dims, rng);
    double score = MinPairwiseDistance(design);
    if (score > best_score) {
      best_score = score;
      best = std::move(design);
    }
  }
  return best;
}

namespace {
// Van der Corput radical inverse in the given base.
double RadicalInverse(size_t index, size_t base) {
  double result = 0.0;
  double f = 1.0 / static_cast<double>(base);
  size_t i = index;
  while (i > 0) {
    result += f * static_cast<double>(i % base);
    i /= base;
    f /= static_cast<double>(base);
  }
  return result;
}

constexpr size_t kPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29,
                              31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                              73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
}  // namespace

std::vector<Vec> HaltonSamples(size_t count, size_t dims) {
  std::vector<Vec> out(count, Vec(dims, 0.0));
  size_t max_dims = sizeof(kPrimes) / sizeof(kPrimes[0]);
  for (size_t i = 0; i < count; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      size_t base = kPrimes[d % max_dims];
      // Skip index 0 (all-zeros point) for better uniformity.
      out[i][d] = RadicalInverse(i + 1, base);
    }
  }
  return out;
}

double MinPairwiseDistance(const std::vector<Vec>& points) {
  if (points.size() < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      best = std::min(best, SquaredDistance(points[i], points[j]));
    }
  }
  return std::sqrt(best);
}

}  // namespace atune
