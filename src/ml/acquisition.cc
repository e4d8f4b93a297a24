#include "ml/acquisition.h"

#include <cmath>

namespace atune {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kInvSqrt2 = 0.7071067811865475;

/// AcquisitionBound's error margin, relative to the terms and absolute.
/// EI's and PI's rounding errors stay below about 1e-12 of the terms'
/// magnitudes: a few ulps from erfc, exp and the products, scaled by at
/// most z² ≈ 1500 before the terms reach the subnormals, where the
/// absolute floor takes over.
constexpr double kRelativeMargin = 1e-9;
constexpr double kAbsoluteMargin = 0x1p-1000;
}  // namespace

double NormalPdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

double NormalCdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }

double ExpectedImprovement(const GpPrediction& pred, double best, double xi) {
  double sigma = std::sqrt(pred.variance);
  double improvement = best - xi - pred.mean;
  if (sigma < 1e-12) return improvement > 0.0 ? improvement : 0.0;
  double z = improvement / sigma;
  return improvement * NormalCdf(z) + sigma * NormalPdf(z);
}

double ProbabilityOfImprovement(const GpPrediction& pred, double best,
                                double xi) {
  double sigma = std::sqrt(pred.variance);
  if (sigma < 1e-12) return pred.mean < best - xi ? 1.0 : 0.0;
  return NormalCdf((best - xi - pred.mean) / sigma);
}

double LowerConfidenceBound(const GpPrediction& pred, double beta) {
  return -(pred.mean - beta * std::sqrt(pred.variance));
}

void ExpectedImprovementBatch(const std::vector<GpPrediction>& preds,
                              double best, double xi, Vec* out) {
  out->resize(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    (*out)[i] = ExpectedImprovement(preds[i], best, xi);
  }
}

double AcquisitionValue(AcquisitionKind kind, const GpPrediction& pred,
                        double best) {
  switch (kind) {
    case AcquisitionKind::kProbabilityOfImprovement:
      return ProbabilityOfImprovement(pred, best);
    case AcquisitionKind::kLowerConfidenceBound:
      return LowerConfidenceBound(pred, 2.0);
    case AcquisitionKind::kExpectedImprovement:
      break;
  }
  return ExpectedImprovement(pred, best);
}

double AcquisitionBound(AcquisitionKind kind, double mean,
                        double prior_variance, double best) {
  const GpPrediction prior{mean, prior_variance};
  switch (kind) {
    case AcquisitionKind::kLowerConfidenceBound:
      // sqrt, the doubling and the subtraction all round monotonically.
      return LowerConfidenceBound(prior, 2.0);
    case AcquisitionKind::kProbabilityOfImprovement: {
      if (mean < best) return 1.0;
      const double p = ProbabilityOfImprovement(prior, best);
      return p + (kRelativeMargin * p + kAbsoluteMargin);
    }
    case AcquisitionKind::kExpectedImprovement:
      break;
  }
  // ExpectedImprovement's own operations, with the terms kept for the
  // margin. Below the sigma cutoff every variance scores max(imp, 0).
  const double sigma = std::sqrt(prior_variance);
  const double imp = best - mean;
  if (sigma < 1e-12) return ExpectedImprovement(prior, best);
  const double z = imp / sigma;
  const double cdf = NormalCdf(z);
  const double pdf = NormalPdf(z);
  return imp * cdf + sigma * pdf +
         (kRelativeMargin * (std::fabs(imp) * cdf + sigma * pdf) +
          kAbsoluteMargin);
}

}  // namespace atune
