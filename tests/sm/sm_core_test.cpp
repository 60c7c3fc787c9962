// SmCore's finished-warp count, drain check and schedulers' ready sets
// against a brute-force walk of the state they summarize, on every core
// cycle of whole runs.
#include "sm/sm_core.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gpu/simulator.h"
#include "robust/invariants.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

bool NaiveFinished(const SmCore& core) {
  for (const Warp& w : core.warps()) {
    if (!w.Finished()) return false;
  }
  return true;
}

bool NaiveDrained(const SmCore& core) {
  if (!NaiveFinished(core) || !core.ldst().Idle() ||
      core.l1d().HasOutgoing()) {
    return false;
  }
  for (const Warp& w : core.warps()) {
    if (!w.Quiescent()) return false;
  }
  return true;
}

class SmCoreBookkeeping
    : public ::testing::TestWithParam<std::tuple<std::string>> {};

TEST_P(SmCoreBookkeeping, FinishedAndDrainedMatchBruteForceEveryCycle) {
  const auto& [app] = GetParam();
  const Workload wl = MakeWorkload(app, 0.02);
  const SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);

  Cycle checked = 0;
  std::uint64_t finished_core_cycles = 0;
  while (!gpu.Done() && gpu.core_cycles() < cfg.max_core_cycles) {
    gpu.Step();  // to the next core clock edge
    checked = gpu.core_cycles();
    for (const SmCore& core : gpu.cores()) {
      ASSERT_EQ(core.Finished(), NaiveFinished(core))
          << "core " << core.id() << " cycle " << checked;
      ASSERT_EQ(core.Drained(), NaiveDrained(core))
          << "core " << core.id() << " cycle " << checked;
      ASSERT_EQ(robust::CheckSmCore(core, checked), "")
          << "core " << core.id() << " cycle " << checked;
      if (core.Finished()) ++finished_core_cycles;
    }
  }
  ASSERT_TRUE(gpu.Done());
  // Both answers were exercised, not just "still running".
  EXPECT_GT(finished_core_cycles, 0u);
  EXPECT_GT(checked * gpu.cores().size(), finished_core_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    CsAndCiApps, SmCoreBookkeeping,
    ::testing::Combine(::testing::Values("HS", "BFS")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_gto";  // Table 1's schedulers
    });

}  // namespace
}  // namespace dlpsim
