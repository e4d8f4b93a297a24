#ifndef ATUNE_MATH_SAMPLING_H_
#define ATUNE_MATH_SAMPLING_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "math/matrix.h"

namespace atune {

/// Space-filling and random designs over the unit hypercube [0,1]^dims.
/// All samplers return `count` points, each a Vec of length `dims`.

/// Latin Hypercube Sampling: each dimension is split into `count` strata and
/// every stratum is hit exactly once (uniform jitter within the stratum).
/// This is the initialization design used by iTuned [Duan et al., 2009].
std::vector<Vec> LatinHypercubeSamples(size_t count, size_t dims, Rng* rng);

/// Maximin-improved LHS: generates `restarts` LHS designs and keeps the one
/// maximizing the minimum pairwise distance (iTuned's space-filling
/// refinement).
std::vector<Vec> MaximinLatinHypercube(size_t count, size_t dims,
                                       size_t restarts, Rng* rng);

/// Halton low-discrepancy sequence (deterministic quasi-random design).
std::vector<Vec> HaltonSamples(size_t count, size_t dims);

/// Minimum pairwise Euclidean distance of a design (space-filling metric).
double MinPairwiseDistance(const std::vector<Vec>& points);

}  // namespace atune

#endif  // ATUNE_MATH_SAMPLING_H_
