#ifndef ATUNE_COMMON_STATS_H_
#define ATUNE_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace atune {

/// Online mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 if fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Sample variance (n-1); 0 if fewer than 2 elements.
double Variance(const std::vector<double>& xs);

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
double Quantile(std::vector<double> xs, double q);

double Median(const std::vector<double>& xs);

/// Upper median: the element at index size/2 after a partial sort
/// (nth_element), i.e. for even n the upper of the two middle elements —
/// no interpolation, always an actual sample. Partially reorders *xs.
/// 0 for empty input.
double UpperMedianInPlace(std::vector<double>* xs);

/// Median absolute deviation about the upper median. Both the center and
/// the spread use UpperMedianInPlace, matching the classical
/// modified-z-score recipe on actual samples (the Evaluator's outlier
/// detector depends on these exact semantics — see
/// RobustnessPolicy::outlier_mad_threshold). Empty input yields {0, 0}.
struct MadResult {
  double median = 0.0;
  double mad = 0.0;
};
MadResult Mad(std::vector<double> xs);

/// Pearson correlation coefficient; 0 if either side is constant.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// Spearman rank correlation; ties get average ranks.
double SpearmanCorrelation(const std::vector<double>& xs,
                           const std::vector<double>& ys);

/// Assigns average ranks (1-based) to values, averaging over ties.
std::vector<double> Ranks(const std::vector<double>& xs);

}  // namespace atune

#endif  // ATUNE_COMMON_STATS_H_
