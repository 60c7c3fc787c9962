#include "sim/stats.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

TEST(SaturatingCounter, SaturatesAtWidth) {
  SaturatingCounter c(2);  // max 3
  EXPECT_EQ(c.max(), 3u);
  for (int i = 0; i < 10; ++i) c.Increment();
  EXPECT_EQ(c.value(), 3u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(SaturatingCounter, PaperWidths) {
  SaturatingCounter tda(8);
  SaturatingCounter vta(10);
  EXPECT_EQ(tda.max(), 255u);
  EXPECT_EQ(vta.max(), 1023u);
}

TEST(SaturatingCounter, WideCounterDoesNotOverflowShift) {
  SaturatingCounter c(32);
  EXPECT_EQ(c.max(), 0xffffffffu);
}

}  // namespace
}  // namespace dlpsim
