#include "ml/linear_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace atune {

void StandardScaler::Fit(const std::vector<Vec>& xs) {
  means_.clear();
  stds_.clear();
  if (xs.empty()) return;
  size_t dims = xs[0].size();
  means_.assign(dims, 0.0);
  stds_.assign(dims, 0.0);
  for (const Vec& x : xs) {
    for (size_t d = 0; d < dims; ++d) means_[d] += x[d];
  }
  for (double& m : means_) m /= static_cast<double>(xs.size());
  for (const Vec& x : xs) {
    for (size_t d = 0; d < dims; ++d) {
      double diff = x[d] - means_[d];
      stds_[d] += diff * diff;
    }
  }
  for (double& s : stds_) {
    s = std::sqrt(s / static_cast<double>(xs.size()));
    if (s < 1e-12) s = 0.0;
  }
}

Vec StandardScaler::Transform(const Vec& x) const {
  Vec z(x.size(), 0.0);
  for (size_t d = 0; d < x.size() && d < means_.size(); ++d) {
    z[d] = stds_[d] > 0.0 ? (x[d] - means_[d]) / stds_[d] : 0.0;
  }
  return z;
}

std::vector<Vec> StandardScaler::TransformAll(const std::vector<Vec>& xs) const {
  std::vector<Vec> out;
  out.reserve(xs.size());
  for (const Vec& x : xs) out.push_back(Transform(x));
  return out;
}

Status RidgeRegression::Fit(const std::vector<Vec>& xs, const Vec& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("RidgeRegression: bad training data");
  }
  size_t n = xs.size();
  size_t dims = xs[0].size();
  // Center x and y so the intercept is unpenalized.
  Vec x_mean(dims, 0.0);
  double y_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) x_mean[d] += xs[i][d];
    y_mean += ys[i];
  }
  for (double& m : x_mean) m /= static_cast<double>(n);
  y_mean /= static_cast<double>(n);

  Matrix a(n, dims);
  Vec b(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) a.At(i, d) = xs[i][d] - x_mean[d];
    b[i] = ys[i] - y_mean;
  }
  ATUNE_ASSIGN_OR_RETURN(weights_, Matrix::LeastSquares(a, b, lambda_));
  intercept_ = y_mean - Dot(weights_, x_mean);
  fitted_ = true;
  return Status::OK();
}

double RidgeRegression::Predict(const Vec& x) const {
  if (!fitted_) return 0.0;
  return intercept_ + Dot(weights_, x);
}

namespace {
double SoftThreshold(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}
}  // namespace

Status LassoRegression::Fit(const std::vector<Vec>& xs, const Vec& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("LassoRegression: bad training data");
  }
  size_t n = xs.size();
  size_t dims = xs[0].size();
  StandardScaler scaler;
  scaler.Fit(xs);
  std::vector<Vec> zs = scaler.TransformAll(xs);

  double y_mean = 0.0;
  for (double y : ys) y_mean += y;
  y_mean /= static_cast<double>(n);
  Vec r(n);  // residuals given current weights (start at w = 0)
  for (size_t i = 0; i < n; ++i) r[i] = ys[i] - y_mean;

  weights_.assign(dims, 0.0);
  // Per-feature squared norms (columns are standardized: approx n each, but
  // compute exactly; zero-variance columns give 0 and are skipped).
  Vec col_sq(dims, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) col_sq[d] += zs[i][d] * zs[i][d];
  }

  double nf = static_cast<double>(n);
  for (size_t iter = 0; iter < max_iters_; ++iter) {
    double max_delta = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      if (col_sq[d] <= 0.0) continue;
      // rho = (1/n) sum_i z_id * (r_i + w_d z_id)
      double rho = 0.0;
      for (size_t i = 0; i < n; ++i) {
        rho += zs[i][d] * (r[i] + weights_[d] * zs[i][d]);
      }
      rho /= nf;
      double denom = col_sq[d] / nf;
      double new_w = SoftThreshold(rho, lambda_) / denom;
      double delta = new_w - weights_[d];
      if (delta != 0.0) {
        for (size_t i = 0; i < n; ++i) r[i] -= delta * zs[i][d];
        weights_[d] = new_w;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < tol_) break;
  }
  return Status::OK();
}

Result<std::vector<size_t>> LassoPathRanking(const std::vector<Vec>& xs,
                                             const Vec& ys,
                                             size_t num_lambdas) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("LassoPathRanking: bad training data");
  }
  size_t dims = xs[0].size();
  size_t n = xs.size();

  // lambda_max: smallest lambda for which all weights are zero =
  // max_d |(1/n) <z_d, y - mean(y)>| on standardized features.
  StandardScaler scaler;
  scaler.Fit(xs);
  std::vector<Vec> zs = scaler.TransformAll(xs);
  double y_mean = 0.0;
  for (double y : ys) y_mean += y;
  y_mean /= static_cast<double>(n);
  double lambda_max = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    double corr = 0.0;
    for (size_t i = 0; i < n; ++i) corr += zs[i][d] * (ys[i] - y_mean);
    lambda_max = std::max(lambda_max, std::abs(corr) / static_cast<double>(n));
  }
  if (lambda_max <= 0.0) lambda_max = 1.0;

  std::vector<size_t> activation_order;
  std::vector<bool> active(dims, false);
  for (size_t k = 0; k < num_lambdas; ++k) {
    // Geometric path from just-below lambda_max down to lambda_max * 1e-3.
    double frac = static_cast<double>(k + 1) / static_cast<double>(num_lambdas);
    double lambda = lambda_max * std::pow(1e-3, frac);
    LassoRegression lasso(lambda, 500, 1e-6);
    ATUNE_RETURN_IF_ERROR(lasso.Fit(xs, ys));
    for (size_t d = 0; d < dims; ++d) {
      if (!active[d] && std::abs(lasso.weights()[d]) > 1e-9) {
        active[d] = true;
        activation_order.push_back(d);
      }
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    if (!active[d]) activation_order.push_back(d);
  }
  return activation_order;
}

}  // namespace atune
