// Tests for internal::ExpV4 (DESIGN.md §11), glibc's exp written four lanes
// abreast with explicit FMAs. On hosts with AVX2 and FMA every lane must
// carry std::exp's bits: the random arguments cover the kernel tail's
// range, the edge arguments the fast range's bounds and its libm fallback
// lanes beside fast ones, and the pinned arguments the few where a
// polynomial coefficient one ulp off shows. The self-check that gates the
// GP's use of ExpV4 must refuse a libm that differs on one of them.

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "math/matrix.h"

namespace atune {
namespace {

using std::mt19937_64;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Arguments where C2 one ulp up changes exp's bits, which it does on
/// about one random argument in a million, and two where the algorithm
/// with its multiply-adds unfused does.
const double kPinned[] = {
    -0x1.ea83b26d0e034p+3, -0x1.9eb0a302b11bp+2,  -0x1.08476dbe04f14p+7,
    -0x1.43960b71c79d2p+7, -0x1.7fa145cf12a98p+7, -0x1.29e7653647f8p+5,
    -0x1.daeea2792aaep+0};

#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// y[i] = ExpV4's exp(x[i]) for i < count (a multiple of four), inlined
/// into an entry of the kernel tail's kind.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"), flatten)) void
ExpV4Span(const double* x, size_t count, double* y) {
  for (size_t i = 0; i < count; i += 4) {
    internal::V4 v = {};
    internal::Load(&v, x + i);
    internal::V4 e = {};
    internal::ExpV4(&e, v);
    internal::Store(y + i, e);
  }
}
#endif

/// Counts the arguments on which ExpV4 and std::exp differ in any bit,
/// reporting the first few.
size_t Mismatches(const std::vector<double>& x) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  std::vector<double> y(x.size());
  ExpV4Span(x.data(), x.size(), y.data());
  size_t bad = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double want = std::exp(x[i]);
    if (!SameBits(y[i], want)) {
      if (++bad <= 3) {
        ADD_FAILURE() << std::hexfloat << "exp(" << x[i] << "): " << y[i]
                      << " vs libm " << want;
      }
    }
  }
  return bad;
#else
  (void)x;
  return 0;
#endif
}

TEST(ExpV4, RandomArgumentsEqualLibm) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  // 10.49 M arguments in [-745, 0]: half uniform over it, a quarter over
  // the kernel tail's usual [-40, 0], and a quarter with log-uniform
  // magnitudes in [2^-60, 745], which reaches the tiny arguments libm
  // takes, and those with subnormal results.
  mt19937_64 gen(31);
  std::uniform_real_distribution<double> wide(-745.0, 0.0);
  std::uniform_real_distribution<double> kernel(-40.0, 0.0);
  std::uniform_real_distribution<double> log_mag(-60.0 * std::log(2.0),
                                                 std::log(745.0));
  std::vector<double> x(1 << 16);
  size_t bad = 0;
  for (size_t round = 0; round < 160; ++round) {
    for (size_t i = 0; i < x.size(); ++i) {
      switch (i % 4) {
        case 0:
        case 1:
          x[i] = wide(gen);
          break;
        case 2:
          x[i] = kernel(gen);
          break;
        default:
          x[i] = -std::exp(log_mag(gen));
      }
    }
    bad += Mismatches(x);
  }
  EXPECT_EQ(bad, 0u);
}

TEST(ExpV4, EdgeArgumentsEqualLibm) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> edges(std::begin(kPinned), std::end(kPinned));
  // Zeros, the fast range's bounds 2^-54 and 512 and their neighbours on
  // both sides, infinities, NaN, and arguments whose exp is subnormal,
  // the smallest subnormal, or zero.
  for (double v : {0.0, -0.0, inf, -inf,
                   std::numeric_limits<double>::quiet_NaN(), -708.4,
                   -708.39641853226408, -720.0, -740.0, -744.44, -745.0,
                   -745.1332191019411, -745.2, -1000.0, -1e300}) {
    edges.push_back(v);
  }
  for (double bound : {0x1p-54, 512.0}) {
    for (double v : {std::nextafter(bound, 0.0), bound,
                     std::nextafter(bound, inf)}) {
      edges.push_back(v);
      edges.push_back(-v);
    }
  }
  // One argument per table index, and both ends of each index's range.
  const double ln2_128 = 0x1.62e42fefa39efp-8;
  for (int k = -128; k < 128; ++k) {
    edges.push_back((k + 0.25) * ln2_128);
    edges.push_back((k + 0.4999) * ln2_128);
    edges.push_back((k - 0.4999) * ln2_128);
  }
  // Each edge lane shares its vector with three fast lanes, in every
  // position.
  std::vector<double> x;
  mt19937_64 gen(37);
  std::uniform_real_distribution<double> fast(-40.0, -1e-3);
  for (double e : edges) {
    for (size_t pos = 0; pos < 4; ++pos) {
      for (size_t l = 0; l < 4; ++l) x.push_back(l == pos ? e : fast(gen));
    }
  }
  EXPECT_EQ(Mismatches(x), 0u);
}

TEST(ExpV4, SelfCheckAcceptsLibmAndRefusesOneWrongUlp) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  EXPECT_TRUE(
      internal::ExpV4MatchesReference([](double x) { return std::exp(x); }));
  EXPECT_TRUE(internal::ExpV4Available());
  // A libm one ulp off on a single pinned argument.
  EXPECT_FALSE(internal::ExpV4MatchesReference([](double x) {
    const double e = std::exp(x);
    return x == kPinned[0] ? std::nextafter(e, 1.0) : e;
  }));
  // The test switch selects the libm tail, whatever the self-check says.
  SetSse2KernelsForTesting(true);
  EXPECT_FALSE(internal::ExpV4Available());
  SetSse2KernelsForTesting(false);
}

}  // namespace
}  // namespace atune
