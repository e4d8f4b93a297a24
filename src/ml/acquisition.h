#ifndef ATUNE_ML_ACQUISITION_H_
#define ATUNE_ML_ACQUISITION_H_

#include "ml/gaussian_process.h"

namespace atune {

/// Acquisition functions for GP-based tuning (iTuned-style Bayesian
/// optimization). All assume *minimization* of the objective: `best` is the
/// lowest observed objective value so far and larger acquisition values mean
/// more promising candidates.

/// Expected Improvement: E[max(best - Y, 0)] under the posterior.
double ExpectedImprovement(const GpPrediction& pred, double best,
                           double xi = 0.0);

/// Probability of Improvement: P(Y < best - xi).
double ProbabilityOfImprovement(const GpPrediction& pred, double best,
                                double xi = 0.0);

/// Lower Confidence Bound expressed as an acquisition value:
/// -(mean - beta * stddev); larger is better.
double LowerConfidenceBound(const GpPrediction& pred, double beta = 2.0);

/// Batched ExpectedImprovement over a PredictBatch result: (*out)[i] is
/// bit-identical to ExpectedImprovement(preds[i], best, xi) (the loop *is*
/// the scalar function, in index order). `*out` is resized; capacity
/// persists so a caller scanning candidate batches reuses the same storage.
void ExpectedImprovementBatch(const std::vector<GpPrediction>& preds,
                              double best, double xi, Vec* out);

/// The value GaussianProcess::ArgmaxAcquisition maximizes:
/// ExpectedImprovement(pred, best), ProbabilityOfImprovement(pred, best) or
/// LowerConfidenceBound(pred, 2.0).
double AcquisitionValue(AcquisitionKind kind, const GpPrediction& pred,
                        double best);

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
