#ifndef ATUNE_MATH_DOE_H_
#define ATUNE_MATH_DOE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace atune {

/// Two-level experimental designs used for parameter screening.
///
/// A design is a matrix of +1/-1 entries: rows are experiment runs, columns
/// are factors (parameters). SARD [Debnath et al., 2008] uses Plackett-Burman
/// designs to rank database knobs by their main effect on performance with a
/// number of runs linear (not exponential) in the number of knobs.

/// A two-level screening design: runs x factors of +/-1 levels.
struct TwoLevelDesign {
  std::vector<std::vector<int>> rows;  ///< each entry is +1 or -1
  size_t num_factors = 0;
};

/// Builds a Plackett-Burman design for at least `num_factors` factors.
/// The run count is the smallest multiple of 4 strictly greater than
/// `num_factors` for which a generator row is known (supported up to 47
/// factors / 48 runs). Extra columns beyond num_factors are dropped.
Result<TwoLevelDesign> PlackettBurman(size_t num_factors);

/// Builds a PB design with fold-over: appends the sign-flipped mirror of
/// every run, doubling the run count but canceling even-order confounding
/// (this is the variant SARD recommends).
Result<TwoLevelDesign> PlackettBurmanFoldover(size_t num_factors);

/// Main effect of each factor given one response value per design run:
/// effect[j] = mean(response | factor j = +1) - mean(response | factor j = -1).
Result<std::vector<double>> MainEffects(const TwoLevelDesign& design,
                                        const std::vector<double>& responses);

/// Ranks factors by |main effect|, largest first. Returns factor indices.
std::vector<size_t> RankByEffect(const std::vector<double>& effects);

}  // namespace atune

#endif  // ATUNE_MATH_DOE_H_
