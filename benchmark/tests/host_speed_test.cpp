#include "host_speed.h"

#include <gtest/gtest.h>

namespace dlpbench {
namespace {

TEST(HostSpeed, IsNeutralWithoutSamples) {
  const HostSpeed host;
  EXPECT_EQ(host.samples(), 0u);
  EXPECT_EQ(host.Factor(), 1.0);
  EXPECT_EQ(host.FactorOver(0.0, host.Now()), 1.0);
}

TEST(HostSpeed, FactorOverAveragesTheSamplesOnEitherSide) {
  HostSpeed host;
  host.WarmUp(0.01);
  EXPECT_EQ(host.samples(), 0u);  // warm-up runs are not recorded

  host.Sample();
  const double only_before = host.Factor();
  EXPECT_GT(only_before, 0.0);
  const double t0 = host.Now();
  const double t1 = host.Now();
  // Work after the last sample: only the sample before it is known.
  EXPECT_EQ(host.FactorOver(t0, t1), only_before);

  host.Sample();
  // With two samples the median is their mean, the bracketing average.
  EXPECT_DOUBLE_EQ(host.FactorOver(t0, t1), host.Factor());
  // Work before the first sample: only the sample after it is known.
  EXPECT_EQ(host.FactorOver(-1.0, -1.0), only_before);
}

TEST(HostSpeed, SampleEveryWaitsForTheInterval) {
  HostSpeed host;
  host.SampleEvery(3600.0);  // the first call always samples
  host.SampleEvery(3600.0);
  EXPECT_EQ(host.samples(), 1u);
  host.SampleEvery(0.0);
  EXPECT_EQ(host.samples(), 2u);
}

}  // namespace
}  // namespace dlpbench
