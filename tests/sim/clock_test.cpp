#include "sim/clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"

namespace dlpsim {
namespace {

TEST(ClockDomainSet, SingleDomainTicksEveryCall) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain("core", 650.0);
  for (int i = 1; i <= 10; ++i) {
    const auto& fired = clocks.Tick();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], core);
    EXPECT_EQ(clocks.cycles(core), static_cast<Cycle>(i));
  }
}

TEST(ClockDomainSet, EqualFrequenciesStayInLockstep) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain("core", 650.0);
  const auto icnt = clocks.AddDomain("icnt", 650.0);
  for (int i = 0; i < 1000; ++i) {
    const auto& fired = clocks.Tick();
    ASSERT_EQ(fired.size(), 2u) << "iteration " << i;
  }
  EXPECT_EQ(clocks.cycles(core), 1000u);
  EXPECT_EQ(clocks.cycles(icnt), 1000u);
}

TEST(ClockDomainSet, FasterDomainTicksProportionally) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain("core", 650.0);
  const auto mem = clocks.AddDomain("mem", 924.0);
  // Advance until the core domain has seen 6500 cycles.
  while (clocks.cycles(core) < 6500) clocks.Tick();
  // mem should have ~ 6500 * 924 / 650 = 9240 cycles (within one tick).
  EXPECT_NEAR(static_cast<double>(clocks.cycles(mem)), 9240.0, 2.0);
}

TEST(ClockDomainSet, TimeAdvancesMonotonically) {
  ClockDomainSet clocks;
  clocks.AddDomain("a", 650.0);
  clocks.AddDomain("b", 924.0);
  double last = 0.0;
  for (int i = 0; i < 500; ++i) {
    clocks.Tick();
    EXPECT_GT(clocks.now_ns(), last);
    last = clocks.now_ns();
  }
}

TEST(ClockDomainSet, NoDriftOverLongRuns) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain("core", 650.0);
  for (int i = 0; i < 100000; ++i) clocks.Tick();
  // cycle * period must match simulated time exactly (no accumulation).
  const double period = 1000.0 / 650.0;
  EXPECT_NEAR(clocks.now_ns(),
              static_cast<double>(clocks.cycles(core)) * period, 1e-6);
}

// TickUntil against stepping every edge with Tick: for seeded due cycles,
// some of them thousands of edges out, it must stop on the same event,
// with the same fired domains and counts, as the first Tick on which a
// due domain fires. Table 1's clocks, clocks apart by a hair (edges a
// few picoseconds apart but wider than the slack) and a clock set with
// exact coincidences every few edges.
TEST(ClockDomainSet, TickUntilStopsWhereSteppingEveryEdgeStops) {
  const std::vector<std::vector<double>> sets = {{650.0, 650.0, 924.0},
                                                 {650.0, 650.0001, 924.0},
                                                 {500.0, 1000.0, 750.0}};
  for (const std::vector<double>& mhz : sets) {
    ClockDomainSet until;
    ClockDomainSet stepping;
    for (double f : mhz) {
      until.AddDomain("d", f);
      stepping.AddDomain("d", f);
    }
    Rng rng(static_cast<std::uint64_t>(mhz[1] * 1000));
    std::vector<Cycle> due(mhz.size());
    for (int i = 0; i < 6000; ++i) {
      for (std::size_t d = 0; d < due.size(); ++d) {
        const std::uint64_t r = rng.Below(8);
        due[d] = r == 0 ? kNever
                        : until.cycles(static_cast<std::uint32_t>(d)) +
                              (r < 4 ? r : rng.Below(2000));
      }
      if (std::all_of(due.begin(), due.end(),
                      [](Cycle c) { return c == kNever; })) {
        due[0] = until.cycles(0) + 1;
      }
      const std::vector<std::uint32_t> got = until.TickUntil(due);
      std::vector<std::uint32_t> want;
      for (bool hit = false; !hit;) {
        want = stepping.Tick();
        for (std::uint32_t d : want) {
          hit = hit || stepping.cycles(d) >= due[d];
        }
      }
      ASSERT_EQ(got, want) << "step " << i;
      for (std::uint32_t d = 0; d < due.size(); ++d) {
        ASSERT_EQ(until.cycles(d), stepping.cycles(d)) << "step " << i;
      }
      ASSERT_EQ(until.now_ns(), stepping.now_ns());
    }
    EXPECT_GT(until.edges_skipped(), 0u);
  }
}

}  // namespace
}  // namespace dlpsim
