#ifndef ATUNE_ML_ACQUISITION_H_
#define ATUNE_ML_ACQUISITION_H_

#include "ml/gaussian_process.h"

namespace atune {

/// Acquisition functions for GP-based tuning (iTuned-style Bayesian
/// optimization). All assume *minimization* of the objective: `best` is the
/// lowest observed objective value so far and larger acquisition values mean
/// more promising candidates.

/// Expected Improvement: E[max(best - Y, 0)] under the posterior.
double ExpectedImprovement(const GpPrediction& pred, double best);

/// Probability of Improvement: P(Y < best).
double ProbabilityOfImprovement(const GpPrediction& pred, double best);

/// Lower Confidence Bound at two standard deviations, expressed as an
/// acquisition value: -(mean - 2 * stddev); larger is better.
double LowerConfidenceBound(const GpPrediction& pred);

/// The value GaussianProcess::ArgmaxAcquisition maximizes:
/// ExpectedImprovement(pred, best), ProbabilityOfImprovement(pred, best) or
/// LowerConfidenceBound(pred).
double AcquisitionValue(AcquisitionKind kind, const GpPrediction& pred,
                        double best);

/// The short name of `kind`: "ei", "pi" or "lcb".
const char* AcquisitionName(AcquisitionKind kind);

/// An upper bound on AcquisitionValue(kind, {mean, v}, best), as computed,
/// over every variance v <= prior_variance. EI and LCB do not decrease in
/// the standard deviation, nor does PI when mean >= best, so the value at
/// the prior variance bounds them; for PI below the incumbent the bound is
/// 1. LCB's rounding is monotone too and needs no margin. EI and PI add an
/// error margin that covers their rounding at both variances, including
/// the cancellation in EI's imp * cdf + sigma * pdf when the mean is above
/// the incumbent: 1e-9 of the terms' magnitudes plus 2^-1000 for results
/// near underflow. A NaN mean gives NaN.
double AcquisitionBound(AcquisitionKind kind, double mean,
                        double prior_variance, double best);

/// Standard normal PDF/CDF helpers (exposed for tests).
double NormalPdf(double z);
double NormalCdf(double z);

}  // namespace atune

#endif  // ATUNE_ML_ACQUISITION_H_
