// Fault-injection tests: deterministic plans, spec parsing, and graceful
// degradation of whole-GPU runs under corrupted DLP state.
#include "robust/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gpu/simulator.h"
#include "workloads/registry.h"

namespace dlpsim::robust {
namespace {

SimConfig TinyGpu(PolicyKind policy = PolicyKind::kDlp) {
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

TEST(FaultPlan, RandomIsDeterministic) {
  const FaultPlan a = FaultPlan::Random(7, 24, 100000, 500);
  const FaultPlan b = FaultPlan::Random(7, 24, 100000, 500);
  ASSERT_EQ(a.events.size(), 24u);
  ASSERT_EQ(b.events.size(), 24u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].cycle, b.events[i].cycle);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].a, b.events[i].a);
    EXPECT_EQ(a.events[i].b, b.events[i].b);
  }
  // A different seed must produce a different schedule.
  const FaultPlan c = FaultPlan::Random(8, 24, 100000, 500);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].cycle != c.events[i].cycle ||
        a.events[i].a != c.events[i].a) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, RandomSpreadsEventsInsideHorizon) {
  const FaultPlan plan = FaultPlan::Random(1, 32, 160000, 100);
  Cycle prev = 0;
  bool seen[kNumFaultKinds] = {};
  for (const FaultEvent& ev : plan.events) {
    EXPECT_GE(ev.cycle, 160000u / 16);
    EXPECT_LT(ev.cycle, 160000u);
    EXPECT_GE(ev.cycle, prev);  // sorted
    prev = ev.cycle;
    seen[static_cast<std::size_t>(ev.kind)] = true;
  }
  // Round-robin kind assignment covers every kind in a 32-event plan.
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    EXPECT_TRUE(seen[k]) << "kind " << k << " never scheduled";
  }
}

TEST(FaultPlan, RandomHonoursKindMask) {
  const FaultPlan plan =
      FaultPlan::Random(3, 16, 100000, 100,
                        MaskOf(FaultKind::kPdptPd) | MaskOf(FaultKind::kVtaClear));
  for (const FaultEvent& ev : plan.events) {
    EXPECT_TRUE(ev.kind == FaultKind::kPdptPd ||
                ev.kind == FaultKind::kVtaClear);
  }
}

TEST(FaultPlan, ParseDefaultsAndFullSpec) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse("1", &plan, &err)) << err;
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_FALSE(plan.empty());

  ASSERT_TRUE(FaultPlan::Parse(
      "seed=9,count=5,horizon=50000,stall=123,kinds=pdpt+mem", &plan, &err))
      << err;
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.stall_cycles, 123u);
  EXPECT_EQ(plan.events.size(), 5u);
  for (const FaultEvent& ev : plan.events) {
    EXPECT_TRUE(ev.kind == FaultKind::kPdptPd ||
                ev.kind == FaultKind::kMemStall);
  }
}

TEST(FaultPlan, ParseRejectsGarbage) {
  FaultPlan plan;
  std::string err;
  EXPECT_FALSE(FaultPlan::Parse("bogus=1", &plan, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(FaultPlan::Parse("kinds=warp", &plan, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(FaultPlan::Parse("seed=xyz", &plan, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  // A sign is rejected, not wrapped to 2^64 - 1 events.
  EXPECT_FALSE(FaultPlan::Parse("count=-1", &plan, &err));
  EXPECT_FALSE(err.empty());
}

TEST(FaultInjector, GpuDegradesGracefullyUnderAllFaultKinds) {
  auto prog = SmallKernel();

  // Clean reference run.
  GpuSimulator clean(TinyGpu(), prog.get(), 4);
  const Metrics ref = clean.Run();
  ASSERT_EQ(ref.completed, 1u);
  ASSERT_GT(ref.core_cycles, 0u);

  // Faulty run: every kind, scheduled across the clean run's span.
  const FaultPlan plan =
      FaultPlan::Random(42, 12, ref.core_cycles, /*stall_cycles=*/500);
  FaultInjector injector(plan);
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  gpu.SetFaultInjector(&injector);
  const Metrics m = gpu.Run();

  // Graceful degradation: the run still completes (no deadlock), all
  // metrics are finite, and IPC stays within a bounded factor of clean.
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(gpu.run_error(), RunError::kNone);
  EXPECT_GT(injector.applied_total(), 0u);
  EXPECT_TRUE(std::isfinite(m.ipc()));
  EXPECT_GT(m.ipc(), 0.0);
  EXPECT_GE(m.ipc(), 0.25 * ref.ipc());
  EXPECT_LE(m.ipc(), 2.0 * ref.ipc());
  // Work conservation survives corruption: same committed instructions.
  EXPECT_EQ(m.committed_thread_insns, ref.committed_thread_insns);
}

TEST(FaultInjector, SamePlanSameResults) {
  auto prog = SmallKernel();
  const FaultPlan plan = FaultPlan::Random(11, 8, 100000, 300);

  Metrics runs[2];
  for (int i = 0; i < 2; ++i) {
    FaultInjector injector(plan);
    GpuSimulator gpu(TinyGpu(), prog.get(), 4);
    gpu.SetFaultInjector(&injector);
    runs[i] = gpu.Run();
  }
  EXPECT_EQ(runs[0].ToText(), runs[1].ToText());
}

TEST(FaultInjector, WriteJsonReportsAppliedCounts) {
  auto prog = SmallKernel();
  FaultInjector injector(FaultPlan::Random(5, 6, 80000, 200));
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  gpu.SetFaultInjector(&injector);
  gpu.Run();

  std::ostringstream os;
  injector.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"seed\""), std::string::npos);
  EXPECT_NE(json.find("\"applied\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

}  // namespace
}  // namespace dlpsim::robust
