#ifndef ATUNE_COMMON_RANDOM_H_
#define ATUNE_COMMON_RANDOM_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace atune {

/// Derives an independent seed for stream `stream` of a component seeded
/// with `seed` (splitmix64 finalizer). Unlike Rng::Fork(), the result does
/// not depend on how many draws the parent has made — only on (seed,
/// stream) — which is what lets cloned systems reproduce exactly the
/// measurement noise the parent would have drawn at a given run index (see
/// TunableSystem::Clone).
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeded pseudo-random number generator used throughout the framework.
///
/// Every stochastic component (samplers, simulators, tuners) takes an
/// explicit seed so that all experiments are reproducible. Rng wraps
/// std::mt19937_64 with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled: mean + stddev * N(0,1).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal with the given underlying normal parameters.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential with the given rate parameter.
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative; returns 0 if all are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; handy for giving each
  /// subcomponent its own stream.
  Rng Fork() { return Rng(engine_()); }

  /// Raw 64-bit draw.
  uint64_t Next() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace atune

#endif  // ATUNE_COMMON_RANDOM_H_
