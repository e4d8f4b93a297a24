#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace atune {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// A generator that returns one fixed 64-bit value: feeds a chosen engine
/// output to std::generate_canonical.
struct FixedBits {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return value; }
  uint64_t value;
};

// Rng keeps the std engine's footprint (312 state words and an index).
static_assert(sizeof(Rng) == sizeof(std::mt19937_64));

TEST(RngStreamTest, StandardCheckValue) {
  // The C++ standard's required 10000th output of a default-seeded
  // mt19937_64 ([rand.predef]).
  Rng rng(5489);
  uint64_t v = 0;
  for (int i = 0; i < 10000; ++i) v = rng.Next();
  EXPECT_EQ(v, 9981545732273789042ULL);
}

TEST(RngStreamTest, NextEqualsStdEngine) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{5489},
                        uint64_t{0x9e3779b97f4a7c15ULL}, ~uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    size_t mismatches = 0, first = 0;
    for (size_t i = 0; i < 1000000; ++i) {
      if (rng.Next() != ref() && mismatches++ == 0) first = i;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", first at " << first;
  }
}

TEST(RngStreamTest, CanonicalConversionMatchesStdAtTheEdges) {
  const uint64_t kTop = ~uint64_t{0};
  for (uint64_t u : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 53,
                     (uint64_t{1} << 53) + 1, kTop - 1024, kTop - 1023,
                     kTop}) {
    FixedBits gen{u};
    const double expected = std::generate_canonical<double, 53>(gen);
    const double got = internal::CanonicalDouble(u);
    EXPECT_EQ(Bits(got), Bits(expected)) << "u = " << u;
    EXPECT_LT(got, 1.0) << "u = " << u;
  }
  // Rounding ties and carries across the 32-bit split, against the std
  // conversion at random outputs.
  std::mt19937_64 gen(77);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t u = gen() >> (i % 64);
    FixedBits fixed{u};
    ASSERT_EQ(Bits(internal::CanonicalDouble(u)),
              Bits(std::generate_canonical<double, 53>(fixed)))
        << "u = " << u;
  }
}

TEST(RngStreamTest, DistributionsEqualStdOverTheStdEngine) {
  // Interleaved draws, with parameters that change from draw to draw,
  // against a fresh std distribution per call over std::mt19937_64: the
  // code Rng replaced.
  const size_t kDraws = 1000000;
  for (uint64_t seed : {uint64_t{0}, uint64_t{2024}, ~uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    size_t mismatches = 0, first = 0;
    auto check = [&](bool equal, size_t i) {
      if (!equal && mismatches++ == 0) first = i;
    };
    for (size_t i = 0; i < kDraws; ++i) {
      const double a = static_cast<double>(i % 7) - 3.0;
      const double b = a + 0.25 * static_cast<double>(1 + i % 5);
      switch (DeriveSeed(seed, i) % 6) {
        case 0:
          check(Bits(rng.Uniform()) ==
                    Bits(std::uniform_real_distribution<double>()(ref)),
                i);
          break;
        case 1:
          check(Bits(rng.Uniform(a, b)) ==
                    Bits(std::uniform_real_distribution<double>(a, b)(ref)),
                i);
          break;
        case 2: {
          const double sd = 0.08 * static_cast<double>(1 + i % 4);
          check(Bits(rng.Normal(a, sd)) ==
                    Bits(std::normal_distribution<double>(a, sd)(ref)),
                i);
          break;
        }
        case 3: {
          const double p = static_cast<double>(i % 11) / 10.0;
          check(rng.Bernoulli(p) == std::bernoulli_distribution(p)(ref), i);
          break;
        }
        case 4: {
          const int64_t lo = -static_cast<int64_t>(i % 5);
          const int64_t hi =
              i % 9 == 0 ? std::numeric_limits<int64_t>::max()
                         : lo + static_cast<int64_t>(i % 1000);
          check(rng.UniformInt(lo, hi) ==
                    std::uniform_int_distribution<int64_t>(lo, hi)(ref),
                i);
          break;
        }
        default: {
          std::vector<int> mine(2 + i % 9), theirs;
          for (size_t k = 0; k < mine.size(); ++k) {
            mine[k] = static_cast<int>(k);
          }
          theirs = mine;
          std::shuffle(mine.begin(), mine.end(), rng.engine());
          std::shuffle(theirs.begin(), theirs.end(), ref);
          check(mine == theirs, i);
          break;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", first at " << first;
    // Both sides consumed the same engine outputs.
    EXPECT_EQ(rng.Next(), ref()) << "seed " << seed;
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) counts[rng.Categorical(weights)]++;
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.03);
  EXPECT_EQ(counts[2], 0);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 0u);
}

}  // namespace
}  // namespace atune
