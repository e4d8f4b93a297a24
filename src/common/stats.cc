#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace atune {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (q <= 0.0) return xs.front();
  if (q >= 1.0) return xs.back();
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

double UpperMedianInPlace(std::vector<double>* xs) {
  if (xs->empty()) return 0.0;
  std::nth_element(xs->begin(), xs->begin() + xs->size() / 2, xs->end());
  return (*xs)[xs->size() / 2];
}

MadResult Mad(std::vector<double> xs) {
  MadResult r;
  if (xs.empty()) return r;
  r.median = UpperMedianInPlace(&xs);
  // The deviations are computed over the partially reordered vector; that
  // is fine — they form the same multiset, and nth_element is order-blind.
  for (double& x : xs) x = std::abs(x - r.median);
  r.mad = UpperMedianInPlace(&xs);
  return r;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = xs[i] - mx;
    double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> Ranks(const std::vector<double>& xs) {
  size_t n = xs.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    // Average rank for the tie group [i, j].
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  std::vector<double> x(xs.begin(), xs.begin() + n);
  std::vector<double> y(ys.begin(), ys.begin() + n);
  return PearsonCorrelation(Ranks(x), Ranks(y));
}

}  // namespace atune
