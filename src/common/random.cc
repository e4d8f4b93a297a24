#include "common/random.h"

namespace atune {

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double u = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace atune
