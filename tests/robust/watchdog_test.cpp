// Watchdog tests: a hand-crafted livelock must become a structured
// diagnostic + typed error instead of silently burning the cycle budget.
#include "robust/watchdog.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gpu/simulator.h"
#include "robust/fault.h"
#include "workloads/registry.h"

namespace dlpsim::robust {
namespace {

SimConfig TinyGpu(PolicyKind policy = PolicyKind::kBaseline) {
  SimConfig cfg = SimConfig::WithPolicy(policy);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  cfg.max_core_cycles = 1000000;
  return cfg;
}

std::unique_ptr<Program> SmallKernel() {
  ProgramBuilder b(8);
  b.Alu(10).LoadStream().Alu(5).LoadPrivate(2).StoreStream().Alu(5);
  return b.Build();
}

TEST(Watchdog, ObserveTripsOnceAfterStallWindow) {
  Watchdog wd(WatchdogConfig{/*check_interval=*/100, /*stall_cycles=*/1000});
  // Progressing signatures never trip.
  EXPECT_FALSE(wd.Observe(1, 100));
  EXPECT_FALSE(wd.Observe(2, 200));
  // Signature freezes at cycle 200; the window must elapse first.
  EXPECT_FALSE(wd.Observe(2, 300));
  EXPECT_FALSE(wd.Observe(2, 1100));
  // 1201 - 200 > 1000: trip, exactly once.
  EXPECT_TRUE(wd.Observe(2, 1300));
  EXPECT_TRUE(wd.tripped());
  EXPECT_FALSE(wd.Observe(2, 1400));
  EXPECT_EQ(wd.last_progress_cycle(), 200u);
}

TEST(Watchdog, HandCraftedLivelockProducesTypedErrorAndDiagnostic) {
  // Livelock: freeze the crossbar "forever" mid-run. Every warp ends up
  // waiting on memory that can never arrive; without the watchdog this
  // burns the full 1M-cycle budget.
  auto prog = SmallKernel();
  FaultPlan plan;
  plan.stall_cycles = 1u << 30;  // effectively frozen forever
  plan.events.push_back(
      FaultEvent{/*cycle=*/2000, FaultKind::kIcntStall, 0, 0, 0});
  FaultInjector injector(plan);

  Watchdog wd(WatchdogConfig{/*check_interval=*/512, /*stall_cycles=*/20000});
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  gpu.SetFaultInjector(&injector);
  gpu.SetWatchdog(&wd);
  const Metrics m = gpu.Run();

  // Typed error, well before the hard cycle budget.
  EXPECT_EQ(gpu.run_error(), RunError::kWatchdogStall);
  EXPECT_TRUE(wd.tripped());
  EXPECT_EQ(m.completed, 0u);
  EXPECT_LT(m.core_cycles, 200000u);

  // The diagnostic names the stalled resource (the frozen interconnect)
  // and carries per-SM state.
  const StallDiagnostic& d = wd.diagnostic();
  EXPECT_EQ(d.StalledResource(), "interconnect");
  EXPECT_GT(d.icnt_in_flight, 0u);
  EXPECT_EQ(d.sms.size(), 2u);
  EXPECT_GT(d.total_wait_mem, 0u);
  EXPECT_GT(d.trip_cycle, d.last_progress_cycle);

  const std::string text = d.ToText();
  EXPECT_NE(text.find("interconnect"), std::string::npos);
  EXPECT_NE(text.find("watchdog"), std::string::npos);

  std::ostringstream os;
  d.WriteJson(os);
  EXPECT_NE(os.str().find("\"stalled_resource\""), std::string::npos);
}

TEST(Watchdog, CycleBudgetIsTypedError) {
  SimConfig cfg = TinyGpu();
  cfg.max_core_cycles = 500;
  ProgramBuilder b(1000000);  // cannot finish in 500 cycles
  b.Alu(100).LoadStream();
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 4);
  const Metrics m = gpu.Run();
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(gpu.run_error(), RunError::kCycleBudget);
}

TEST(Watchdog, CleanRunNeverTripsAndResultsAreByteIdentical) {
  auto prog = SmallKernel();

  GpuSimulator plain(TinyGpu(), prog.get(), 4);
  const Metrics ref = plain.Run();
  ASSERT_EQ(ref.completed, 1u);

  Watchdog wd(WatchdogConfig{/*check_interval=*/256, /*stall_cycles=*/50000});
  GpuSimulator watched(TinyGpu(), prog.get(), 4);
  watched.SetWatchdog(&wd);
  const Metrics m = watched.Run();

  EXPECT_FALSE(wd.tripped());
  EXPECT_EQ(watched.run_error(), RunError::kNone);
  EXPECT_EQ(m.ToText(), ref.ToText());
}

TEST(Watchdog, DiagnoseCountsProtectedWaysBehindAnEvictableOne) {
  // Way 0 is evictable, so the set is not fully protected; the three
  // protected ways behind it must still be counted.
  auto prog = SmallKernel();
  GpuSimulator gpu(TinyGpu(PolicyKind::kDlp), prog.get(), 4);
  TagArray& tda = gpu.cores()[0].l1d().mutable_tda();
  for (std::uint32_t way = 0; way < 4; ++way) {
    CacheLine& line = tda.At(0, way);
    line.block = way;
    line.state = LineState::kValid;
    line.protected_life = way == 0 ? 0 : 5;
  }

  const StallDiagnostic d = Diagnose(gpu, 0, 0, 0);
  ASSERT_EQ(d.sms.size(), 2u);
  EXPECT_EQ(d.sms[0].protected_lines, 3u);
  EXPECT_EQ(d.sms[0].fully_protected_sets, 0u);
  EXPECT_EQ(d.sms[1].protected_lines, 0u);
}

TEST(Watchdog, RunErrorToStringIsStable) {
  EXPECT_STREQ(ToString(RunError::kNone), "none");
  EXPECT_STREQ(ToString(RunError::kWatchdogStall), "watchdog_stall");
  EXPECT_STREQ(ToString(RunError::kCycleBudget), "cycle_budget");
}

}  // namespace
}  // namespace dlpsim::robust
