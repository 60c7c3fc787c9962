// The engine's work counters, pinned. They are exact and deterministic, so
// a change that makes the engine do more work per simulated cycle fails
// here at twice the work measured when the gate was set, however noisy
// the host's wall clock is.
#include "gpu/simulator.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "workloads/registry.h"

namespace dlpsim {
namespace {

struct Pinned {
  const char* app;
  PolicyKind policy;
  // Measured at scale 0.02 on Table 1.
  EngineCounters measured;
};

// gtest would print the struct's bytes, pointer and padding included,
// into the test names.
void PrintTo(const Pinned& p, std::ostream* os) {
  *os << p.app << '/' << ToString(p.policy);
}

// Lockstep events: the steps a clock that stops on every edge takes to
// reach the same core and memory cycles.
std::uint64_t LockstepEvents(const SimConfig& cfg, Cycle core, Cycle mem) {
  ClockDomainSet clocks;
  const std::uint32_t c = clocks.AddDomain("core", cfg.core_mhz);
  clocks.AddDomain("icnt", cfg.icnt_mhz);
  const std::uint32_t m = clocks.AddDomain("mem", cfg.mem_mhz);
  std::uint64_t events = 0;
  while (clocks.cycles(c) < core || clocks.cycles(m) < mem) {
    clocks.Tick();
    ++events;
  }
  return events;
}

class EngineWork : public ::testing::TestWithParam<Pinned> {};

TEST_P(EngineWork, StaysWithinTwiceTheMeasuredCounts) {
  const Pinned& p = GetParam();
  const Workload wl = MakeWorkload(p.app, 0.02);
  const SimConfig cfg = p.policy == PolicyKind::kBaseline
                            ? SimConfig::Baseline16KB()
                            : SimConfig::WithPolicy(p.policy);
  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  ASSERT_EQ(gpu.Run().completed, 1u);
  const EngineCounters got = gpu.engine_counters();
  const EngineCounters& want = p.measured;

  EXPECT_LE(got.steps, 2 * want.steps);
  EXPECT_LE(got.core_ticks, 2 * want.core_ticks);
  EXPECT_LE(got.partition_ticks, 2 * want.partition_ticks);
  EXPECT_LE(got.crossbar_ticks, 2 * want.crossbar_ticks);
  EXPECT_LE(got.port_visits, 2 * want.port_visits);
  EXPECT_LE(got.done_calls, 2 * want.done_calls);
  // Skipping idle edges is the saving: it must keep doing so.
  EXPECT_GE(2 * got.edges_skipped, want.edges_skipped);

  // Fewer steps than a clock that stops on every edge, and port visits
  // near the busy ports rather than every port on every icnt edge.
  EXPECT_LT(got.steps,
            LockstepEvents(cfg, gpu.core_cycles(), gpu.mem_cycles()));
  const std::uint64_t ports = cfg.num_cores + cfg.num_partitions;
  EXPECT_LT(got.port_visits, ports * gpu.core_cycles());  // icnt edges
  EXPECT_LT(got.crossbar_ticks, gpu.core_cycles());
}

EngineCounters Measured(std::uint64_t steps, std::uint64_t edges_skipped,
                        std::uint64_t core_ticks,
                        std::uint64_t partition_ticks,
                        std::uint64_t crossbar_ticks,
                        std::uint64_t port_visits, std::uint64_t done_calls) {
  EngineCounters c;
  c.steps = steps;
  c.edges_skipped = edges_skipped;
  c.core_ticks = core_ticks;
  c.partition_ticks = partition_ticks;
  c.crossbar_ticks = crossbar_ticks;
  c.port_visits = port_visits;
  c.done_calls = done_calls;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    CsAndCi, EngineWork,
    ::testing::Values(
        // 7,619 core and 10,831 memory cycles: 18,427 lockstep events.
        Pinned{"HS", PolicyKind::kBaseline,
               Measured(7673, 13479, 8039, 8087, 4635, 22490, 5)},
        // 2,993 core and 4,254 memory cycles: 7,238 lockstep events.
        Pinned{"SRK", PolicyKind::kDlp,
               Measured(5878, 1611, 11072, 17393, 2576, 25795, 425)}),
    [](const auto& info) {
      return std::string(info.param.app) +
             (info.param.policy == PolicyKind::kBaseline ? "_base" : "_dlp");
    });

}  // namespace
}  // namespace dlpsim
