#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace falvolt::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(13);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_int(std::uint64_t{7})];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 0.06 * n / 7.0);
  }
}

TEST(Rng, UniformIntThrowsOnZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(std::int64_t{-2}, std::int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    if (v == -2) saw_lo = true;
    if (v == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(19);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementKZero) {
  Rng rng(37);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleWithoutReplacementThrowsWhenKTooBig) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementUniformCoverage) {
  // Every cell of a 16-cell grid should be picked roughly equally often.
  Rng rng(43);
  std::array<int, 16> counts{};
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (const auto v : rng.sample_without_replacement(16, 4)) {
      ++counts[v];
    }
  }
  const double expect = trials * 4.0 / 16.0;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expect, 0.08 * expect);
  }
}

// Floyd's algorithm finding repeats by scanning its whole output, as
// sample_without_replacement did before it kept a hash set: the oracle
// for its draws and output order.
std::vector<std::size_t> floyd_by_scan(Rng& rng, std::size_t n,
                                       std::size_t k) {
  std::vector<std::size_t> out;
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(rng.uniform_int(j + 1));
    bool seen = false;
    for (const auto v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

// Every fault map is drawn through sample_without_replacement, so it must
// keep the scan's output element for element, and leave the generator
// where the scan leaves it.
TEST(Rng, SampleWithoutReplacementMatchesTheScan) {
  std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, 0}, {64, 0}, {64, 64}, {4096, 4096}, {4096, 1229}, {4096, 2458}};
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t k = 0; k <= n; ++k) cases.emplace_back(n, k);
  }
  for (const std::uint64_t seed : {1u, 29u, 4242u}) {
    for (const auto& [n, k] : cases) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                   std::to_string(n) + " k " + std::to_string(k));
      Rng got(seed);
      Rng want(seed);
      EXPECT_EQ(got.sample_without_replacement(n, k),
                floyd_by_scan(want, n, k));
      EXPECT_EQ(got.next_u64(), want.next_u64());
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(51);
  Rng child = a.split();
  // Child stream should differ from parent continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace falvolt::common
