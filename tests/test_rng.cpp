#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace eevfs {
namespace {

// --- known answers ---------------------------------------------------------
//
// The first eight draws of each sampler from Rng(kSeed), captured before
// the samplers precomputed their parameters.  Every workload is drawn from
// these samplers, so a drift here would move every golden digest; these
// vectors name the sampler that drifted.

constexpr std::uint64_t kSeed = 2010;

TEST(KnownAnswer, NextU64) {
  constexpr std::array<std::uint64_t, 8> kWant = {
      0xD219D993C72CDBE5ULL, 0xD20BA434B8371770ULL, 0x84D4922D8D1820F5ULL,
      0xB23DBC8E543E4F53ULL, 0x79E8EE1E9F1BE04FULL, 0x38B9EDAC823ACD6FULL,
      0x5D80186F138AF255ULL, 0x2F3D60655FABC76CULL};
  Rng rng(kSeed);
  for (const std::uint64_t want : kWant) EXPECT_EQ(rng.next_u64(), want);
}

TEST(KnownAnswer, NextBelow) {
  // 4 and 512 are perfbench's client counts (a power of two takes the
  // mask); 1000 takes the rejection-sampled modulo.
  const std::vector<std::pair<std::uint64_t, std::array<std::uint64_t, 8>>>
      cases = {
          {4, {1, 0, 1, 3, 3, 3, 1, 0}},
          {512, {485, 368, 245, 339, 79, 367, 85, 364}},
          {1000, {725, 656, 997, 227, 255, 359, 605, 628}},
      };
  for (const auto& [bound, want] : cases) {
    Rng rng(kSeed);
    for (const std::uint64_t w : want) {
      EXPECT_EQ(rng.next_below(bound), w) << "bound " << bound;
    }
  }
}

TEST(KnownAnswer, Poisson) {
  // Both sides of Knuth's branch (MU < 30) and PTRS, up to
  // dc_stream_1024's MU of 128,001.
  const std::vector<std::pair<double, std::array<std::int64_t, 8>>> cases = {
      {1.0, {2, 1, 0, 0, 0, 0, 1, 1}},
      {29.9, {26, 33, 30, 27, 36, 34, 34, 24}},
      {30.0, {30, 30, 28, 27, 28, 25, 32, 23}},
      {1000.0, {1033, 1002, 998, 988, 983, 987, 972, 1012}},
      {128001.0,
       {128372, 128020, 127977, 127862, 127807, 127853, 127683, 128135}},
  };
  for (const auto& [mu, want] : cases) {
    const PoissonDistribution poisson(mu);
    Rng rng(kSeed);
    for (const std::int64_t w : want) EXPECT_EQ(poisson(rng), w) << "mu " << mu;
  }
}

TEST(KnownAnswer, Zipf) {
  const std::vector<
      std::pair<std::pair<std::size_t, double>, std::array<std::size_t, 8>>>
      cases = {
          {{60, 0.98}, {26, 26, 6, 14, 4, 1, 2, 0}},
          {{1000, 0.0}, {820, 820, 518, 696, 476, 221, 365, 184}},
      };
  for (const auto& [params, want] : cases) {
    const ZipfDistribution zipf(params.first, params.second);
    Rng rng(kSeed);
    for (const std::size_t w : want) {
      EXPECT_EQ(zipf(rng), w) << params.first << " ranks, alpha "
                              << params.second;
    }
  }
}

TEST(KnownAnswer, Lognormal) {
  // perfbench's size model: 10 MB files, sigma 0.02.
  constexpr std::array<double, 8> kWant = {
      0x1.41aa1ebe56e62p+23, 0x1.3d84492d58c38p+23, 0x1.4152b6c3638a9p+23,
      0x1.43968b7c6632p+23,  0x1.3932a9a86257p+23,  0x1.3a6662406a51cp+23,
      0x1.47093151d8612p+23, 0x1.41e4ba04048b3p+23};
  constexpr double kMean = 10.0 * 1024 * 1024;
  const LognormalDistribution lognormal(kMean, 0.02);
  Rng a(kSeed), b(kSeed);
  for (const double want : kWant) {
    EXPECT_EQ(lognormal(a), want);
    EXPECT_EQ(b.lognormal_with_mean(kMean, 0.02), want);
  }
}

// --- references ----------------------------------------------------------
//
// The samplers as they were before they precomputed anything: Zipf's
// binary search over its CDF and the per-call Poisson rule.  The
// distributions must return what these return, draw for draw.

/// ZipfDistribution's CDF, built the same way, searched by bisection.
class ReferenceZipf {
 public:
  ReferenceZipf(std::size_t n, double alpha) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }

  std::size_t rank_of(double u) const {
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
};

/// Knuth below MU 30, PTRS above, every constant computed per call.
std::int64_t reference_poisson(Rng& rng, double mu) {
  if (mu < 30.0) {
    const double limit = std::exp(-mu);
    double prod = 1.0;
    std::int64_t k = -1;
    do {
      ++k;
      prod *= rng.next_double();
    } while (prod > limit);
    return k;
  }
  const double b = 0.931 + 2.53 * std::sqrt(mu);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.next_double() - 0.5;
    const double v = rng.next_double();
    const double us = 0.5 - std::abs(u);
    const auto k = static_cast<std::int64_t>(
        std::floor((2.0 * a / us + b) * u + mu + 0.43));
    if (us >= 0.07 && v <= v_r) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mu + static_cast<double>(k) * std::log(mu) -
            std::lgamma(static_cast<double>(k) + 1.0)) {
      return k;
    }
  }
}

/// The (n, alpha) pairs the Zipf comparisons cover: one rank, the web
/// trace's 60, powers of two and their neighbours (a full and a nearly
/// empty guide table), uniform and steep skews.  At alpha 6 the CDF
/// rounds to 1 long before the last rank.
const std::vector<std::pair<std::size_t, double>> kZipfCases = {
    {1, 1.2},   {2, 0.98},   {60, 0.98},  {64, 0.98},
    {65, 0.7},  {100, 0.98}, {1000, 0.0}, {1000, 1.5},
    {1000, 6.0}, {4097, 0.9}, {100'000, 0.9}};

TEST(Zipf, DrawsMatchBinarySearch) {
  constexpr int kDrawsPerCase = 100'000;  // 1.1 million in all
  for (const auto& [n, alpha] : kZipfCases) {
    const ZipfDistribution zipf(n, alpha);
    const ReferenceZipf reference(n, alpha);
    Rng a(kSeed + n), b(kSeed + n);
    for (int i = 0; i < kDrawsPerCase; ++i) {
      ASSERT_EQ(zipf(a), reference.rank_of(b.next_double()))
          << n << " ranks, alpha " << alpha << ", draw " << i;
    }
  }
}

TEST(Zipf, RankOfMatchesBinarySearchAtEveryEdge) {
  for (const auto& [n, alpha] : kZipfCases) {
    const ZipfDistribution zipf(n, alpha);
    const ReferenceZipf reference(n, alpha);
    const auto check = [&](double u) {
      if (!(u >= 0.0 && u <= 1.0)) return;
      ASSERT_EQ(zipf.rank_of(u), reference.rank_of(u))
          << n << " ranks, alpha " << alpha << ", u " << u;
    };
    for (const double c : reference.cdf()) {
      check(std::nextafter(c, 0.0));
      check(c);
      check(std::nextafter(c, 2.0));
    }
    const std::size_t buckets = std::bit_ceil(n);
    for (std::size_t j = 0; j <= buckets; ++j) {
      const double edge =
          static_cast<double>(j) / static_cast<double>(buckets);
      check(std::nextafter(edge, 0.0));
      check(edge);
      check(std::nextafter(edge, 2.0));
    }
    check(0.0);
    check(std::nextafter(1.0, 0.0));
  }
}

TEST(Rng, NextBelowPowerOfTwoMatchesModulo) {
  // The rejection-sampled modulo, kept as the reference for the mask.
  const auto reference = [](Rng& rng, std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold) return r % bound;
    }
  };
  for (int shift = 0; shift < 64; ++shift) {
    const std::uint64_t bound = std::uint64_t{1} << shift;
    Rng a(kSeed), b(kSeed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.next_below(bound), reference(b, bound)) << "bound " << bound;
    }
  }
}

TEST(Poisson, DrawsMatchPerCallRule) {
  constexpr int kDrawsPerCase = 150'000;  // 1.2 million in all
  for (const double mu :
       {0.5, 1.0, 10.0, 29.9, 30.0, 100.0, 1000.0, 128'001.0}) {
    const PoissonDistribution poisson(mu);
    Rng a(kSeed), b(kSeed);
    for (int i = 0; i < kDrawsPerCase; ++i) {
      ASSERT_EQ(poisson(a), reference_poisson(b, mu))
          << "mu " << mu << ", draw " << i;
    }
  }
}

TEST(Samplers, RejectInvalidParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double mu : {nan, inf, -inf, 0.0, -1.0}) {
    EXPECT_THROW(PoissonDistribution{mu}, std::invalid_argument) << mu;
  }
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  for (const double alpha : {nan, inf, -inf}) {
    EXPECT_THROW(ZipfDistribution(10, alpha), std::invalid_argument) << alpha;
  }
  EXPECT_THROW(ZipfDistribution(10, -2000.0), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(nan, 0.5), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(10.0, inf), std::invalid_argument);
}

// --- properties ------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowStaysBelowBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBound)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBound, 0.06 * kSamples / kBound);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasConfiguredMean) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.05);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatchMu) {
  const double mu = GetParam();
  const PoissonDistribution poisson(mu);
  Rng rng(23);
  constexpr int kSamples = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const auto v = static_cast<double>(poisson(rng));
    EXPECT_GE(v, 0.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, mu, 4.0 * std::sqrt(mu / kSamples) + 0.02);
  EXPECT_NEAR(var, mu, 0.08 * mu + 0.1);
}

// Table II MU values, spanning both sampler branches (Knuth / PTRS).
INSTANTIATE_TEST_SUITE_P(TableTwoMus, PoissonMeanTest,
                         ::testing::Values(1.0, 10.0, 29.9, 30.1, 100.0,
                                           1000.0));

TEST(Rng, NormalMoments) {
  Rng rng(29);
  constexpr int kSamples = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(sum_sq / kSamples - mean * mean, 4.0, 0.1);
}

TEST(Rng, LognormalWithMeanHitsTargetMean) {
  Rng rng(31);
  constexpr int kSamples = 400000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.lognormal_with_mean(10.0, 0.5);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 10.0, 0.15);
}

TEST(Rng, ForkProducesIndependentDeterministicStreams) {
  const Rng root(99);
  Rng a1 = root.fork(1), a2 = root.fork(1), b = root.fork(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a1.next_u64(), a2.next_u64());
  }
  Rng a3 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a3.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDiffersFromParentStream) {
  Rng root(99);
  Rng child = root.fork(0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (root.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Zipf, ProbabilitiesDecreaseWithRank) {
  Rng rng(37);
  const ZipfDistribution zipf(100, 0.98);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[60]);
  // Rank-0 mass for alpha ~1 over 100 ranks is ~1/H_100 ~ 0.19.
  EXPECT_NEAR(counts[0] / 200000.0, 0.19, 0.04);
}

TEST(Zipf, AlphaZeroIsUniform) {
  Rng rng(41);
  const ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Zipf, SingleElementAlwaysZero) {
  Rng rng(43);
  const ZipfDistribution zipf(1, 1.2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(SplitMix, KnownSequenceIsStable) {
  // splitmix64's published first output from state 0 (Vigna's reference
  // splitmix64.c); the state advances by the golden-ratio increment.
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(s, 0x9E3779B97F4A7C15ULL);
}

}  // namespace
}  // namespace eevfs
