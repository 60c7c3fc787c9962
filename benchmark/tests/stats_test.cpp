#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace dlpbench {
namespace {

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankReturnsAnObservedSample) {
  const std::vector<double> v = {7, 1, 10, 4, 2, 9, 3, 8, 6, 5};
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 10), 1);
  EXPECT_EQ(Percentile(v, 11), 2);
  EXPECT_EQ(Percentile(v, 50), 5);
  EXPECT_EQ(Percentile(v, 90), 9);
  EXPECT_EQ(Percentile(v, 99), 10);
  EXPECT_EQ(Percentile(v, 100), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10), 0);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99);
  for (int n = 11; n <= 600; ++n) {
    const std::vector<double> v = Range(1, n);
    const double at = Percentile(v, TailPercentile(static_cast<std::size_t>(n)));
    EXPECT_EQ(n - at, 10) << "n=" << n;
  }
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = QuartilesOf(Range(1, 10));
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = QuartilesOf({4, 2, 1, 3});
  EXPECT_DOUBLE_EQ(b.q1, 1.25);
  EXPECT_DOUBLE_EQ(b.q3, 3.75);
  const Quartiles c = QuartilesOf({5, 7});
  EXPECT_DOUBLE_EQ(c.q1, 4.5);
  EXPECT_DOUBLE_EQ(c.q2, 6.0);
  EXPECT_DOUBLE_EQ(c.q3, 7.5);
  const Quartiles d = QuartilesOf({3});
  EXPECT_EQ(d.q1, 3);
  EXPECT_EQ(d.q3, 3);
}

TEST(Spread, IsInterquartileRangeOverMedian) {
  EXPECT_DOUBLE_EQ(Spread(Range(1, 10)), (8.25 - 2.75) / 5.5);
  EXPECT_EQ(Spread({2, 2, 2, 2}), 0);
  EXPECT_EQ(Spread({0, 0}), 0);
}

TEST(Bound, WorseningFollowsTheMetricsDirection) {
  EXPECT_DOUBLE_EQ(Worsening(100, 110, Better::kLower), 0.10);
  EXPECT_DOUBLE_EQ(Worsening(100, 90, Better::kLower), -0.10);
  EXPECT_DOUBLE_EQ(Worsening(100, 90, Better::kHigher), 0.10);
  EXPECT_TRUE(WithinBound(100, 104.9, Better::kLower, 0.05));
  EXPECT_FALSE(WithinBound(100, 105.1, Better::kLower, 0.05));
  EXPECT_TRUE(WithinBound(100, 95.1, Better::kHigher, 0.05));
  EXPECT_FALSE(WithinBound(100, 94.9, Better::kHigher, 0.05));
  EXPECT_TRUE(WithinBound(100, 50, Better::kLower, 0.0));
}

TEST(Compare, Verdicts) {
  const std::vector<double> base = {100, 101, 99, 100, 102, 98};
  EXPECT_EQ(Compare(base, {101, 102, 100, 101, 100, 103}, Better::kLower, 0.05),
            Verdict::kOk);
  EXPECT_EQ(Compare(base, {110, 111, 109, 110, 112, 108}, Better::kLower, 0.05),
            Verdict::kRegressed);
  // A candidate spread wider than the bound cannot be called unchanged...
  EXPECT_EQ(Compare(base, {80, 120, 100, 90, 110, 100}, Better::kLower, 0.05),
            Verdict::kUnresolved);
  // ...unless every candidate run beats every base run.
  EXPECT_EQ(Compare({100, 150, 120}, {50, 90, 70}, Better::kLower, 0.05),
            Verdict::kAllBetter);
  EXPECT_EQ(Compare(base, {110, 111, 109}, Better::kHigher, 0.05),
            Verdict::kAllBetter);
  EXPECT_EQ(Compare(base, {}, Better::kLower, 0.05), Verdict::kUnresolved);
}

}  // namespace
}  // namespace dlpbench
