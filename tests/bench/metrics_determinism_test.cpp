// Registry-level determinism and conservation:
//
//  1. A metrics dump produced by the same simulation grid must be
//     byte-identical at DLPSIM_JOBS=1 and DLPSIM_JOBS=8 (the registry's
//     core guarantee: integer-only values, commutative adds, sorted
//     exposition, jobs_dispatched counted in ParallelMap).
//  2. The registry's subsystem counters must reconcile exactly with the
//     Metrics block the simulator returns for the same run: every
//     GpuSimulator::Run publishes its component counters once.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "harness.h"
#include "obs/metrics.h"

namespace dlpsim::bench {
namespace {

constexpr double kScale = 0.02;

std::string GlobalMetricsText() {
  std::ostringstream os;
  obs::Registry::Global().WriteText(os);
  return os.str();
}

/// Simulates the pinned grid through the parallel executor (bypassing the
/// harness memo and disk cache, so every cell really simulates) and
/// returns the resulting global-registry dump.
std::string DumpAfterGrid(std::size_t jobs) {
  obs::Registry::Global().Reset();
  const std::vector<exec::Job> grid =
      exec::Grid({"BFS", "BP"}, {"base", "dlp"});
  exec::RunJobs(
      grid,
      [](const exec::Job& j) {
        return SimulateUncached(j.app, j.config, kScale);
      },
      jobs);
  return GlobalMetricsText();
}

TEST(MetricsDeterminism, DumpByteIdenticalAcrossJobCounts) {
  const std::string serial = DumpAfterGrid(1);
  const std::string parallel = DumpAfterGrid(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // The dump is not trivially empty: the grid counted real work.
  EXPECT_NE(serial.find("dlpsim_cache_accesses"), std::string::npos);
  EXPECT_NE(serial.find("dlpsim_exec_jobs_dispatched"), std::string::npos);
  // Same grid again at yet another job count: still identical.
  EXPECT_EQ(serial, DumpAfterGrid(3));
}

TEST(MetricsConservation, RegistryMatchesMetricsBlock) {
  obs::Registry::Global().Reset();
  const RunResult r = SimulateUncached("BFS", "dlp", kScale);
  ASSERT_GT(r.metrics.l1d_accesses, 0u);

  obs::Registry& reg = obs::Registry::Global();
  EXPECT_EQ(reg.GetCounter("cache", "accesses")->Value(),
            r.metrics.l1d_accesses);
  EXPECT_EQ(reg.GetCounter("cache", "fills")->Value(), r.metrics.l1d_fills);
  EXPECT_EQ(reg.GetCounter("mem", "dram_reads")->Value(),
            r.metrics.dram_reads);
  EXPECT_EQ(reg.GetCounter("mem", "dram_writes")->Value(),
            r.metrics.dram_writes);

  // The MSHR-occupancy histogram observes exactly once per issued miss.
  const std::uint64_t bounds[] = {0, 1, 2, 4, 8, 16, 32};
  EXPECT_EQ(reg.GetHistogram("cache", "mshr_occupancy", bounds)->Count(),
            r.metrics.l1d_misses_issued);

  // Occupancy gauges read zero at this quiescent point.
  EXPECT_EQ(reg.GetGauge("exec", "queue_depth")->Value(), 0);
  EXPECT_EQ(reg.GetGauge("exec", "jobs_inflight")->Value(), 0);
}

TEST(MetricsConservation, TwoRunsCountTwice) {
  obs::Registry::Global().Reset();
  const RunResult r = SimulateUncached("HS", "base", kScale);
  SimulateUncached("HS", "base", kScale);
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("cache", "accesses")->Value(),
      2 * r.metrics.l1d_accesses);
}

}  // namespace
}  // namespace dlpsim::bench
