// End-to-end integration tests on small GPU configurations.
#include "gpu/simulator.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/per_sm_profiler.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

SimConfig TinyGpu(PolicyKind policy = PolicyKind::kBaseline) {
  SimConfig cfg = SimConfig::WithPolicy(policy);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  cfg.max_core_cycles = 400000;
  return cfg;
}

std::unique_ptr<Program> SmallKernel() {
  ProgramBuilder b(8);
  b.Alu(10).LoadStream().Alu(5).LoadPrivate(2).StoreStream().Alu(5);
  return b.Build();
}

TEST(GpuSimulator, RunsToCompletion) {
  auto prog = SmallKernel();
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  const Metrics m = gpu.Run();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_GT(m.core_cycles, 0u);
  // 2 cores x 4 warps x 8 iters x 23 slots x 32 threads.
  EXPECT_EQ(m.committed_thread_insns, 2ull * 4 * 8 * 23 * 32);
  EXPECT_EQ(m.committed_mem_insns, 2ull * 4 * 8 * 3 * 32);
}

TEST(GpuSimulator, RejectsWarpsPerSmOutsideOneToMaxWarps) {
  auto prog = SmallKernel();
  const SimConfig cfg = TinyGpu();
  for (const std::uint32_t warps : {0u, cfg.core.max_warps + 1}) {
    try {
      GpuSimulator gpu(cfg, prog.get(), warps);
      ADD_FAILURE() << "warps_per_sm=" << warps << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("warps_per_sm"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("core.max_warps"),
                std::string::npos);
    }
  }
  GpuSimulator gpu(cfg, prog.get(), cfg.core.max_warps);
  const Metrics m = gpu.Run();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.committed_thread_insns,
            2ull * cfg.core.max_warps * 8 * 23 * 32);
}

TEST(GpuSimulator, DeterministicAcrossRuns) {
  auto prog = SmallKernel();
  GpuSimulator a(TinyGpu(), prog.get(), 4);
  GpuSimulator b(TinyGpu(), prog.get(), 4);
  const Metrics ma = a.Run();
  const Metrics mb = b.Run();
  EXPECT_EQ(ma.ToText(), mb.ToText());
}

TEST(GpuSimulator, ConservationInvariants) {
  auto prog = SmallKernel();
  for (PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    GpuSimulator gpu(TinyGpu(policy), prog.get(), 4);
    const Metrics m = gpu.Run();
    SCOPED_TRACE(ToString(policy));
    EXPECT_EQ(m.completed, 1u);
    // Every load is a hit or a miss.
    EXPECT_EQ(m.l1d_loads, m.l1d_load_hits + m.l1d_load_misses);
    // Misses split into issued + merged + bypassed.
    EXPECT_EQ(m.l1d_load_misses,
              m.l1d_misses_issued + m.l1d_mshr_merges + m.l1d_bypasses);
    // Every issued miss eventually fills.
    EXPECT_EQ(m.l1d_fills, m.l1d_misses_issued);
    // Accesses = loads + stores.
    EXPECT_EQ(m.l1d_accesses, m.l1d_loads + m.l1d_stores);
    // Interconnect carried something both ways.
    EXPECT_GT(m.icnt_bytes_total, 0u);
    EXPECT_GT(m.dram_reads, 0u);
  }
}

TEST(GpuSimulator, SameWorkAcrossPolicies) {
  // Committed instructions are policy independent (completion semantics).
  auto prog = SmallKernel();
  std::uint64_t committed = 0;
  for (PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    GpuSimulator gpu(TinyGpu(policy), prog.get(), 4);
    const Metrics m = gpu.Run();
    if (committed == 0) {
      committed = m.committed_thread_insns;
    } else {
      EXPECT_EQ(m.committed_thread_insns, committed);
    }
  }
}

TEST(GpuSimulator, BypassPoliciesNeverDeadlock) {
  // A thrash-heavy kernel under every policy must still complete.
  ProgramBuilder b(30);
  b.LoadIndirect(4096, 0.0, 0x1).LoadIndirect(4096, 0.0, 0x2).LoadPrivate(2)
      .StoreStream()
      .Alu(4);
  auto prog = b.Build();
  for (PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    GpuSimulator gpu(TinyGpu(policy), prog.get(), 16);
    const Metrics m = gpu.Run();
    EXPECT_EQ(m.completed, 1u) << ToString(policy);
  }
}

TEST(GpuSimulator, MaxCycleCapStopsRunaways) {
  SimConfig cfg = TinyGpu();
  cfg.max_core_cycles = 500;
  ProgramBuilder b(1000000);  // would run ~forever
  b.Alu(100).LoadStream();
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 4);
  const Metrics m = gpu.Run();
  EXPECT_EQ(m.completed, 0u);
  EXPECT_LE(m.core_cycles, 502u);
}

TEST(GpuSimulator, AluOnlyKernelApproachesPeakIpc) {
  SimConfig cfg = TinyGpu();
  ProgramBuilder b(200);
  b.Alu(100);
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 8);
  const Metrics m = gpu.Run();
  // Peak = cores x schedulers x warp_size = 2 x 2 x 32 = 128.
  EXPECT_GT(m.ipc(), 0.9 * 128.0);
  EXPECT_EQ(m.l1d_accesses, 0u);
}

TEST(GpuSimulator, DlpProtectsAThrashingReusePattern) {
  // The headline mechanism end-to-end: private lines whose reuse distance
  // exceeds the 4-way LRU reach but fits in the PD window get protected,
  // raising the hit rate versus the baseline.
  SimConfig base_cfg = TinyGpu(PolicyKind::kBaseline);
  SimConfig dlp_cfg = TinyGpu(PolicyKind::kDlp);
  ProgramBuilder b(120);
  b.LoadIndirect(8192, 0.0, 0x11)
      .LoadIndirect(8192, 0.0, 0x12)
      .LoadIndirect(8192, 0.0, 0x13)
      .LoadIndirect(8192, 0.0, 0x14)
      .LoadIndirect(8192, 0.0, 0x15)
      .LoadPrivate(1)
      .LoadPrivate(1)
      .StoreStream()
      .Alu(30);
  auto prog = b.Build();

  GpuSimulator base(base_cfg, prog.get(), 32);
  GpuSimulator dlp(dlp_cfg, prog.get(), 32);
  const Metrics mb = base.Run();
  const Metrics md = dlp.Run();
  ASSERT_EQ(mb.completed, 1u);
  ASSERT_EQ(md.completed, 1u);
  EXPECT_GT(md.l1d_hit_rate(), mb.l1d_hit_rate() + 0.05);
  EXPECT_GT(md.l1d_bypasses, 0u);
  EXPECT_LT(md.l1d_evictions, mb.l1d_evictions);
}

TEST(GpuSimulator, PerSmProfilerSeesEveryCore) {
  auto prog = SmallKernel();
  SimConfig cfg = TinyGpu();
  GpuSimulator gpu(cfg, prog.get(), 4);
  PerSmProfiler prof(cfg.num_cores, cfg.l1d.geom.sets);
  prof.AttachTo(gpu);
  const Metrics m = gpu.Run();
  EXPECT_EQ(prof.accesses(), m.l1d_accesses);
  EXPECT_GT(prof.rd(0).accesses(), 0u);
  EXPECT_GT(prof.rd(1).accesses(), 0u);
  // Compulsory + reuse accesses partition all accesses.
  EXPECT_EQ(prof.compulsory_accesses() + prof.reuse_accesses(),
            m.l1d_accesses);
}

TEST(GpuSimulator, PublishMetricsMatchesComponentCounters) {
  // MM is a CI app whose DLP run already credits VTA hits at this scale.
  const Workload wl = MakeWorkload("MM", 0.02);
  for (const PolicyKind policy : {PolicyKind::kBaseline, PolicyKind::kDlp}) {
    SCOPED_TRACE(ToString(policy));
    const SimConfig cfg = policy == PolicyKind::kBaseline
                              ? SimConfig::Baseline16KB()
                              : SimConfig::WithPolicy(policy);
    GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
    const Metrics m = gpu.Run();
    ASSERT_EQ(m.completed, 1u);

    obs::Registry reg;
    gpu.PublishMetrics(reg);
    const std::vector<obs::MetricSample> snap = reg.Snapshot();
    const auto find = [&snap](std::string_view scope, std::string_view name)
        -> const obs::MetricSample* {
      for (const obs::MetricSample& s : snap) {
        if (s.info.scope == scope && s.info.name == name) return &s;
      }
      return nullptr;
    };
    const auto counter = [&find](std::string_view scope,
                                 std::string_view name) {
      const obs::MetricSample* s = find(scope, name);
      EXPECT_NE(s, nullptr) << scope << '.' << name;
      return s == nullptr ? ~std::uint64_t{0} : s->counter;
    };

    ASSERT_GT(m.l1d_accesses, 0u);
    EXPECT_EQ(counter("cache", "accesses"), m.l1d_accesses);
    EXPECT_EQ(counter("cache", "fills"), m.l1d_fills);
    EXPECT_EQ(counter("mem", "dram_reads"), m.dram_reads);
    EXPECT_EQ(counter("mem", "dram_writes"), m.dram_writes);
    std::uint64_t served = 0;
    for (const MemoryPartition& p : gpu.partitions()) {
      served += p.requests_served;
    }
    EXPECT_EQ(counter("mem", "requests_served"), served);
    EXPECT_EQ(counter("icnt", "packets_delivered"),
              gpu.icnt().packets_delivered);
    // One occupancy observation per issued miss.
    const obs::MetricSample* occupancy = find("cache", "mshr_occupancy");
    ASSERT_NE(occupancy, nullptr);
    EXPECT_EQ(occupancy->count, m.l1d_misses_issued);

    if (policy == PolicyKind::kBaseline) {
      EXPECT_EQ(find("cache", "pl_decrements"), nullptr);
      EXPECT_EQ(find("cache", "pd_recomputes"), nullptr);
      EXPECT_EQ(find("cache", "vta_hits"), nullptr);
    } else {
      EXPECT_EQ(counter("cache", "pd_recomputes"),
                gpu.SnapshotPolicy().samples_taken);
      EXPECT_GT(counter("cache", "pd_recomputes"), 0u);
      std::uint64_t pl_decrements = 0;
      std::uint64_t vta_hits = 0;
      for (const SmCore& core : gpu.cores()) {
        pl_decrements += core.l1d().policy().pl_decrements;
        vta_hits += core.l1d().policy().vta_hits;
      }
      EXPECT_EQ(counter("cache", "pl_decrements"), pl_decrements);
      EXPECT_EQ(counter("cache", "vta_hits"), vta_hits);
      EXPECT_GT(vta_hits, 0u);
    }
  }
}

// The engine ticks nothing on core edges where nothing is due, so a
// heartbeat lands on its cycle only because its next cycle bounds the
// wait. HS skips most core ticks, and 7,619 cycles hold seven
// heartbeats.
TEST(GpuSimulator, ProgressHeartbeatsLandOnTheirCycles) {
  const Workload wl = MakeWorkload("HS", 0.02);
  std::ostringstream os;
  obs::ProgressMeter meter(1000, "HS", &os);
  GpuSimulator gpu(SimConfig::Baseline16KB(), wl.program.get(),
                   wl.warps_per_sm);
  gpu.SetProgress(&meter);
  ASSERT_EQ(gpu.Run().completed, 1u);
  ASSERT_EQ(gpu.core_cycles(), 7619u);
  std::istringstream lines(os.str());
  std::string line;
  Cycle want = 1000;
  for (; std::getline(lines, line); want += 1000) {
    EXPECT_NE(line.find(" cycle=" + std::to_string(want) + " "),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(want, 8000u) << "seven heartbeats";
}

}  // namespace
}  // namespace dlpsim
