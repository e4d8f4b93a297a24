#ifndef ATUNE_COMMON_RANDOM_H_
#define ATUNE_COMMON_RANDOM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
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

/// The 64-bit Mersenne Twister of the C++ standard: the exact output
/// sequence of std::mt19937_64 for every seed, without its branches. The
/// whole 312-word state is twisted once per 312 outputs, with the
/// low-bit select written as a mask (GCC's libstdc++ branches on that
/// random bit for every word), and each word is tempered as it is output,
/// so the object stays the size of the std engine. A uniform random bit
/// generator: std::shuffle and the std integer distributions take it.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  explicit Mt19937_64(uint64_t seed);

  result_type operator()() {
    if (index_ >= kStateWords) Twist();
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kStateWords = 312;
  static constexpr size_t kShift = 156;

  void Twist();

  uint64_t state_[kStateWords];
  size_t index_;
};

namespace internal {

/// The double in [0, 1) that libstdc++'s generate_canonical<double, 53>
/// makes of one 64-bit engine output `u`: RN(u) * 2^-64, clamped to the
/// largest double below 1 when u rounds up to 2^64. Both halves convert
/// exactly and their sum rounds once, so RN(u) needs no branch on the sign
/// bit the way a direct uint64-to-double conversion does on x86-64.
inline double CanonicalDouble(uint64_t u) {
  const double hi = static_cast<double>(static_cast<int64_t>(u >> 32)) * 0x1p32;
  const double lo = static_cast<double>(static_cast<int64_t>(u & 0xffffffffu));
  return std::min((hi + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

}  // namespace internal

/// Seeded pseudo-random number generator used throughout the framework.
///
/// Every stochastic component (samplers, simulators, tuners) takes an
/// explicit seed so that all experiments are reproducible. Rng draws from
/// Mt19937_64, and Uniform, Normal and Bernoulli return bit for bit what
/// GCC 12's libstdc++ gives for a fresh uniform_real_distribution,
/// normal_distribution and bernoulli_distribution over std::mt19937_64 per
/// call (tests/common/random_test.cc pins all of them), so the streams no
/// longer depend on the standard library's version.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return Canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled: mean + stddev * N(0,1). The Marsaglia polar
  /// method as libstdc++ writes it; of each accepted pair it returns the
  /// second value and drops the first, as a fresh std distribution does.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double x, y, r2;
    do {
      x = 2.0 * Canonical() - 1.0;
      y = 2.0 * Canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
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
  bool Bernoulli(double p) { return Canonical() < p; }

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

  Mt19937_64& engine() { return engine_; }

 private:
  double Canonical() { return internal::CanonicalDouble(engine_()); }

  Mt19937_64 engine_;
};

}  // namespace atune

#endif  // ATUNE_COMMON_RANDOM_H_
