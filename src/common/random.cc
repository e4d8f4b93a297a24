#include "common/random.h"

namespace atune {

Mt19937_64::Mt19937_64(uint64_t seed) : index_(kStateWords) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  // Word k from itself, its successor and the word kShift ahead (cyclic);
  // the low bit of y selects kMatrixA through a mask instead of a branch.
  auto mix = [](uint64_t cur, uint64_t next, uint64_t far) {
    const uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
  };
  size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] =
        mix(state_[k], state_[k + 1], state_[k - (kStateWords - kShift)]);
  }
  state_[kStateWords - 1] =
      mix(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
}

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
