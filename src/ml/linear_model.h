#ifndef ATUNE_ML_LINEAR_MODEL_H_
#define ATUNE_ML_LINEAR_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "math/matrix.h"

namespace atune {

/// Feature standardizer: z = (x - mean) / std per column.
/// Columns with zero variance map to 0.
class StandardScaler {
 public:
  /// Learns per-column means and stds from the rows of `xs`.
  void Fit(const std::vector<Vec>& xs);
  Vec Transform(const Vec& x) const;
  std::vector<Vec> TransformAll(const std::vector<Vec>& xs) const;

 private:
  Vec means_;
  Vec stds_;
};

/// Ridge regression y ~ w.x + b, closed form via regularized normal
/// equations. The intercept is not penalized (handled by centering).
class RidgeRegression {
 public:
  explicit RidgeRegression(double lambda = 1e-3) : lambda_(lambda) {}

  Status Fit(const std::vector<Vec>& xs, const Vec& ys);
  double Predict(const Vec& x) const;

 private:
  double lambda_;
  Vec weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

/// Lasso (L1) regression solved by cyclic coordinate descent on standardized
/// features. OtterTune [24] uses Lasso path ordering to rank configuration
/// knobs by importance; `weights()` magnitude gives that ranking.
class LassoRegression {
 public:
  explicit LassoRegression(double lambda = 0.1, size_t max_iters = 1000,
                           double tol = 1e-7)
      : lambda_(lambda), max_iters_(max_iters), tol_(tol) {}

  Status Fit(const std::vector<Vec>& xs, const Vec& ys);

  /// Weights in the standardized feature space (sparsity pattern is what
  /// matters for ranking).
  const Vec& weights() const { return weights_; }

 private:
  double lambda_;
  size_t max_iters_;
  double tol_;
  Vec weights_;  // in standardized space
};

/// Computes the Lasso regularization path: fits a sequence of decreasing
/// lambdas and records the order in which features first become non-zero.
/// Earlier activation = more important feature. Returns feature indices in
/// importance order (most important first); features that never activate are
/// appended in index order.
Result<std::vector<size_t>> LassoPathRanking(const std::vector<Vec>& xs,
                                             const Vec& ys,
                                             size_t num_lambdas = 30);

}  // namespace atune

#endif  // ATUNE_ML_LINEAR_MODEL_H_
