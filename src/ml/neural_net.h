#ifndef ATUNE_ML_NEURAL_NET_H_
#define ATUNE_ML_NEURAL_NET_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "math/matrix.h"
#include "ml/linear_model.h"

namespace atune {

/// Training options for the MLP.
struct MlpOptions {
  std::vector<size_t> hidden_layers = {16, 16};
  size_t epochs = 500;
  size_t batch_size = 16;
  double learning_rate = 1e-2;  ///< Adam step size
  double weight_decay = 1e-5;   ///< L2 penalty
  uint64_t seed = 42;
};

/// Small multi-layer perceptron regressor (tanh hidden activations, linear
/// output, Adam optimizer, MSE loss). This is the performance model behind
/// the Rodd neural-network tuner [19]; inputs/targets are standardized
/// internally.
class Mlp {
 public:
  explicit Mlp(MlpOptions options = {}) : options_(std::move(options)) {}

  /// Trains on (xs, ys). Returns final training MSE in standardized units
  /// via `final_loss()` after a successful fit.
  Status Fit(const std::vector<Vec>& xs, const Vec& ys);

  double Predict(const Vec& x) const;

  double final_loss() const { return final_loss_; }
  bool fitted() const { return fitted_; }

 private:
  struct Layer {
    Matrix w;  // out x in
    Vec b;
    // Adam state:
    Matrix mw, vw;
    Vec mb, vb;
  };

  Vec Forward(const Vec& x, std::vector<Vec>* activations,
              std::vector<Vec>* pre_activations) const;

  MlpOptions options_;
  std::vector<Layer> layers_;
  StandardScaler x_scaler_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double final_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace atune

#endif  // ATUNE_ML_NEURAL_NET_H_
