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

struct AcquisitionNameEntry {
  AcquisitionKind kind;
  const char* name;
};
constexpr AcquisitionNameEntry kAcquisitionNames[] = {
    {AcquisitionKind::kExpectedImprovement, "ei"},
    {AcquisitionKind::kProbabilityOfImprovement, "pi"},
    {AcquisitionKind::kLowerConfidenceBound, "lcb"},
};
}  // namespace

double NormalPdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

double NormalCdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }

double ExpectedImprovement(const GpPrediction& pred, double best) {
  double sigma = std::sqrt(pred.variance);
  double improvement = best - pred.mean;
  if (sigma < 1e-12) return improvement > 0.0 ? improvement : 0.0;
  double z = improvement / sigma;
  return improvement * NormalCdf(z) + sigma * NormalPdf(z);
}

double ProbabilityOfImprovement(const GpPrediction& pred, double best) {
  double sigma = std::sqrt(pred.variance);
  if (sigma < 1e-12) return pred.mean < best ? 1.0 : 0.0;
  return NormalCdf((best - pred.mean) / sigma);
}

double LowerConfidenceBound(const GpPrediction& pred) {
  return -(pred.mean - 2.0 * std::sqrt(pred.variance));
}

double AcquisitionValue(AcquisitionKind kind, const GpPrediction& pred,
                        double best) {
  switch (kind) {
    case AcquisitionKind::kProbabilityOfImprovement:
      return ProbabilityOfImprovement(pred, best);
    case AcquisitionKind::kLowerConfidenceBound:
      return LowerConfidenceBound(pred);
    case AcquisitionKind::kExpectedImprovement:
      break;
  }
  return ExpectedImprovement(pred, best);
}

const char* AcquisitionName(AcquisitionKind kind) {
  for (const AcquisitionNameEntry& entry : kAcquisitionNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

double AcquisitionBound(AcquisitionKind kind, double mean,
                        double prior_variance, double best) {
  const GpPrediction prior{mean, prior_variance};
  switch (kind) {
    case AcquisitionKind::kLowerConfidenceBound:
      // sqrt, the doubling and the subtraction all round monotonically.
      return LowerConfidenceBound(prior);
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
