#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace falvolt::common {
namespace {

TEST(RunningStats, EmptyIsZeros) {
  const RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng(5);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(rs.mean(), mean, 1e-9);
  EXPECT_NEAR(rs.variance(), var, 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(rs.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(rs.count(), 1000u);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats rs;
  for (int i = 0; i < 100; ++i) rs.add(1e9 + i % 2);
  EXPECT_NEAR(rs.variance(), 0.25, 1e-6);
}

}  // namespace
}  // namespace falvolt::common
