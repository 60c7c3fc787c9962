// TimelineSampler unit tests plus the observability integration
// contracts: timeline deltas sum exactly to the final Metrics, attaching
// a sink never perturbs simulation results, and traced DLP runs carry
// the expected event kinds.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "obs/trace_sink.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

Metrics WithLoads(std::uint64_t accesses, std::uint64_t hits) {
  Metrics m;
  m.l1d_accesses = accesses;
  m.l1d_loads = accesses;
  m.l1d_load_hits = hits;
  return m;
}

TEST(TimelineSampler, DeltasAgainstPreviousSample) {
  TimelineSampler sampler(100);
  EXPECT_FALSE(sampler.Due(99));
  EXPECT_TRUE(sampler.Due(100));

  sampler.Record(100, WithLoads(50, 10), PolicySnapshot{});
  sampler.Record(200, WithLoads(80, 25), PolicySnapshot{});

  ASSERT_EQ(sampler.samples().size(), 2u);
  const TimelineSample& a = sampler.samples()[0];
  const TimelineSample& b = sampler.samples()[1];
  EXPECT_EQ(a.cycle, 100u);
  EXPECT_EQ(a.delta.l1d_accesses, 50u);       // first delta = cumulative
  EXPECT_EQ(b.delta.l1d_accesses, 30u);
  EXPECT_EQ(b.delta.l1d_load_hits, 15u);
  EXPECT_EQ(b.cumulative.l1d_accesses, 80u);  // cumulative untouched
}

TEST(TimelineSampler, AdvancesOnFixedGrid) {
  TimelineSampler sampler(100);
  // The simulator checked in late (cycle 250): the next sample is still
  // due at the next grid point after now, not at now + interval.
  sampler.Record(250, WithLoads(1, 0), PolicySnapshot{});
  EXPECT_FALSE(sampler.Due(299));
  EXPECT_TRUE(sampler.Due(300));
}

TEST(TimelineSampler, ClearResets) {
  TimelineSampler sampler(10);
  sampler.Record(10, WithLoads(5, 5), PolicySnapshot{});
  sampler.Clear();
  EXPECT_TRUE(sampler.samples().empty());
  EXPECT_TRUE(sampler.Due(10));
  sampler.Record(10, WithLoads(7, 3), PolicySnapshot{});
  EXPECT_EQ(sampler.samples()[0].delta.l1d_accesses, 7u);  // last_ was reset
}

// --- integration against the real simulator ------------------------------

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

TEST(Observability, TimelineDeltasSumToFinalMetrics) {
  auto prog = SmallKernel();
  GpuSimulator gpu(TinyGpu(PolicyKind::kDlp), prog.get(), 4);
  TimelineSampler timeline(500);
  gpu.SetTimeline(&timeline);
  const Metrics final = gpu.Run();
  ASSERT_EQ(final.completed, 1u);
  ASSERT_GE(timeline.samples().size(), 2u);

  for (const MetricsField& f : MetricsFields()) {
    std::uint64_t sum = 0;
    for (const TimelineSample& s : timeline.samples()) {
      sum += s.delta.*(f.member);
    }
    EXPECT_EQ(sum, final.*(f.member)) << f.name;
  }
  // The last sample's cumulative block is the final Metrics verbatim.
  EXPECT_EQ(timeline.samples().back().cumulative.ToText(), final.ToText());
}

TEST(Observability, AttachingTracingDoesNotPerturbResults) {
  auto prog = SmallKernel();
  // The default L1D never stalls this kernel; 2 MSHR entries and a
  // 2-entry miss queue make Baseline retry thousands of times, so traced
  // runs are compared where failed accesses repeat.
  for (const bool stall_heavy : {false, true}) {
    for (PolicyKind policy :
         {PolicyKind::kBaseline, PolicyKind::kStallBypass,
          PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
      SCOPED_TRACE(::testing::Message() << ToString(policy)
                                        << (stall_heavy ? " stall-heavy" : ""));
      SimConfig cfg = TinyGpu(policy);
      if (stall_heavy) {
        cfg.l1d.mshr_entries = 2;
        cfg.l1d.miss_queue_entries = 2;
      }
      GpuSimulator plain(cfg, prog.get(), 4);
      GpuSimulator traced(cfg, prog.get(), 4);
      TraceSink sink(1u << 16);
      TimelineSampler timeline(250);
      traced.SetTraceSink(&sink);
      traced.SetTimeline(&timeline);
      const Metrics mp = plain.Run();
      const Metrics mt = traced.Run();
      // Bit-identical simulation: tracing is observation only.
      EXPECT_EQ(mp.ToText(), mt.ToText());
      if (!stall_heavy) continue;
      if (policy == PolicyKind::kBaseline) {
        EXPECT_GT(mt.l1d_reservation_fails, 0u);
      }
      // Every failed access, memoized or probed, emits its access event.
      ASSERT_EQ(sink.dropped(), 0u);
      std::uint64_t failed_events = 0;
      for (const TraceEvent& e : sink.OfKind(TraceEventKind::kAccess)) {
        if (e.arg0 ==
            static_cast<std::uint64_t>(AccessResult::kReservationFail)) {
          ++failed_events;
        }
      }
      EXPECT_EQ(failed_events, mt.l1d_reservation_fails);
    }
  }
}

TEST(Observability, UntracedRunEmitsNothing) {
  auto prog = SmallKernel();
  GpuSimulator gpu(TinyGpu(PolicyKind::kDlp), prog.get(), 4);
  const Metrics m = gpu.Run();  // no sink attached
  ASSERT_EQ(m.completed, 1u);
  // Attach a sink only now: it must still be empty afterwards.
  TraceSink sink(16);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.total_emitted(), 0u);
}

TEST(Observability, DlpRunEmitsPolicyEvents) {
  // A reuse pattern that exercises protection: VTA hits drive PD up,
  // protected sets force bypasses, sample windows recompute the PDPT.
  ProgramBuilder b(120);
  b.LoadIndirect(8192, 0.0, 0x11)
      .LoadIndirect(8192, 0.0, 0x12)
      .LoadIndirect(8192, 0.0, 0x13)
      .LoadIndirect(8192, 0.0, 0x14)
      .LoadIndirect(8192, 0.0, 0x15)
      .LoadPrivate(1)
      .StoreStream()
      .Alu(30);
  auto prog = b.Build();

  GpuSimulator gpu(TinyGpu(PolicyKind::kDlp), prog.get(), 32);
  TraceSink sink(1u << 20);
  gpu.SetTraceSink(&sink);
  const Metrics m = gpu.Run();
  ASSERT_EQ(m.completed, 1u);

  EXPECT_GT(sink.CountKind(TraceEventKind::kAccess), 0u);
  EXPECT_GT(sink.CountKind(TraceEventKind::kEviction), 0u);
  EXPECT_GT(sink.CountKind(TraceEventKind::kFill), 0u);
  EXPECT_GT(sink.CountKind(TraceEventKind::kVtaHit), 0u);
  EXPECT_GT(sink.CountKind(TraceEventKind::kPdSample), 0u);
  const std::size_t bypass_events = sink.CountKind(TraceEventKind::kBypass);
  EXPECT_GT(bypass_events, 0u);
  // Without drops, bypass events correspond 1:1 to counted bypasses.
  if (sink.dropped() == 0) {
    EXPECT_EQ(bypass_events, m.l1d_bypasses);
  }

  // Every event's cycle stamp is within the run and nondecreasing.
  Cycle prev = 0;
  for (const TraceEvent& e : sink.InOrder()) {
    EXPECT_GE(e.cycle, prev);
    EXPECT_LE(e.cycle, m.core_cycles + 1);
    prev = e.cycle;
  }
}

TEST(Observability, PerSmAttributionCoversAllCores) {
  auto prog = SmallKernel();
  const SimConfig cfg = TinyGpu(PolicyKind::kDlp);
  GpuSimulator gpu(cfg, prog.get(), 4);
  TraceSink sink(1u << 20);
  gpu.SetTraceSink(&sink);
  ASSERT_EQ(gpu.Run().completed, 1u);

  std::vector<std::uint64_t> per_sm(cfg.num_cores, 0);
  for (const TraceEvent& e : sink.InOrder()) {
    ASSERT_LT(e.sm, cfg.num_cores);
    ++per_sm[e.sm];
  }
  for (std::uint32_t sm = 0; sm < cfg.num_cores; ++sm) {
    EXPECT_GT(per_sm[sm], 0u) << "SM" << sm << " emitted no events";
  }
}

}  // namespace
}  // namespace dlpsim
