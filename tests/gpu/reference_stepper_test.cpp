// GpuSimulator against a reference stepper that ticks every component on
// every clock-domain event. The reference drives a second simulator's
// cores, crossbar and partitions directly through cores(), icnt() and
// partitions() with its own ClockDomainSet, so none of GpuSimulator's
// skips runs in it: not the inactive-core skip, not the partition Due
// skip and not the core Due skip. Skipped work must never change an
// observable counter, whether read on every core cycle, at a timeline
// sample, or at the end of a run cut short by max_core_cycles.
#include "gpu/simulator.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "workloads/registry.h"

namespace dlpsim {
namespace {

constexpr double kScale = 0.02;

class ReferenceStepper {
 public:
  ReferenceStepper(const SimConfig& cfg, const Program* program,
                   std::uint32_t warps_per_sm, SchedulerKind sched)
      : gpu_(cfg, program, warps_per_sm, sched) {
    // GpuSimulator's frequencies in its registration order.
    core_ = clocks_.AddDomain("core", cfg.core_mhz);
    icnt_ = clocks_.AddDomain("icnt", cfg.icnt_mhz);
    mem_ = clocks_.AddDomain("mem", cfg.mem_mhz);
  }

  void Step() {
    for (std::uint32_t domain : clocks_.Tick()) {
      if (domain == mem_) {
        for (MemoryPartition& p : gpu_.partitions()) {
          p.Tick(clocks_.cycles(mem_), gpu_.icnt());
        }
      } else if (domain == icnt_) {
        gpu_.icnt().Tick(clocks_.cycles(icnt_));
      } else if (domain == core_) {
        for (SmCore& core : gpu_.cores()) {
          core.TickCore(clocks_.cycles(core_), gpu_.icnt());
        }
      }
    }
  }

  /// GpuSimulator::Collect at this cycle.
  Metrics Collect() const {
    Metrics m = gpu_.Collect();
    m.core_cycles = core_cycles();
    return m;
  }
  /// What GpuSimulator::Run returns when it stops at this cycle.
  Metrics Result() const {
    Metrics m = Collect();
    m.completed = gpu_.Done() ? 1 : 0;
    return m;
  }

  const GpuSimulator& gpu() const { return gpu_; }
  bool Done() const { return gpu_.Done(); }
  Cycle core_cycles() const { return clocks_.cycles(core_); }

 private:
  GpuSimulator gpu_;
  ClockDomainSet clocks_;
  std::uint32_t core_ = 0;
  std::uint32_t icnt_ = 0;
  std::uint32_t mem_ = 0;
};

struct Reading {
  const char* what;
  std::uint32_t unit;  // SM or partition id
  std::uint64_t value;
};

/// Every counter and queue depth the two steppers must agree on.
void Read(const GpuSimulator& gpu, std::vector<Reading>* out) {
  out->clear();
  for (const SmCore& core : gpu.cores()) {
    const std::uint32_t id = core.id();
    out->push_back({"committed_thread_insns", id, core.committed_thread_insns});
    out->push_back({"committed_mem_insns", id, core.committed_mem_insns});
    out->push_back({"issued_warp_insns", id, core.issued_warp_insns});
    out->push_back({"load_block_cycles", id, core.load_block_cycles});
    out->push_back({"load_block_events", id, core.load_block_events});
    out->push_back({"other_traffic_credit", id, core.other_traffic_credit()});
    out->push_back({"ldst.stall_cycles", id, core.ldst().stall_cycles});
    for (const CacheStatsField& f : CacheStatsFields()) {
      out->push_back({f.name, id, core.l1d().stats().*f.member});
    }
  }
  const Crossbar& icnt = gpu.icnt();
  const Crossbar::QueueDepths d = icnt.Depths();
  out->push_back({"icnt.core_inject", 0, d.core_inject});
  out->push_back({"icnt.partition_inject", 0, d.partition_inject});
  out->push_back({"icnt.in_flight", 0, d.in_flight});
  out->push_back({"icnt.to_partition", 0, d.to_partition});
  out->push_back({"icnt.to_core", 0, d.to_core});
  out->push_back({"icnt.packets_delivered", 0, icnt.packets_delivered});
  out->push_back({"icnt.bytes_l1d", 0, icnt.bytes_l1d});
  out->push_back({"icnt.bytes_other", 0, icnt.bytes_other});
  for (const MemoryPartition& p : gpu.partitions()) {
    const std::uint32_t id = p.id();
    const MemoryPartition::QueueDepths m = p.Depths();
    out->push_back({"mem.retry", id, m.retry});
    out->push_back({"mem.replies", id, m.replies});
    out->push_back({"mem.dram_backlog", id, m.dram_backlog});
    out->push_back({"mem.dram_queue", id, m.dram_queue});
    out->push_back({"mem.dram_in_service", id, m.dram_in_service});
    out->push_back({"mem.l2_pending", id, m.l2_pending});
    out->push_back({"mem.requests_served", id, p.requests_served});
    out->push_back({"dram.reads", id, p.dram().reads});
    out->push_back({"dram.writes", id, p.dram().writes});
    out->push_back({"dram.row_hits", id, p.dram().row_hits});
    out->push_back({"dram.row_misses", id, p.dram().row_misses});
  }
}

/// "" when the readings agree, else the first one that differs.
std::string FirstDifference(const std::vector<Reading>& fast,
                            const std::vector<Reading>& ref) {
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (fast[i].value != ref[i].value) {
      std::ostringstream os;
      os << ref[i].what << " of unit " << ref[i].unit << ": stepper "
         << fast[i].value << ", reference " << ref[i].value;
      return os.str();
    }
  }
  return "";
}

SimConfig ConfigFor(PolicyKind policy) {
  return policy == PolicyKind::kBaseline ? SimConfig::Baseline16KB()
                                         : SimConfig::WithPolicy(policy);
}

std::string PolicyName(PolicyKind policy) {
  return policy == PolicyKind::kBaseline ? "base" : "dlp";
}

// --- every core cycle -------------------------------------------------------

using LockstepParam = std::tuple<std::string, PolicyKind, SchedulerKind>;

class ReferenceLockstep : public ::testing::TestWithParam<LockstepParam> {};

// GpuSimulator::Step ends with SyncCores, so after every core clock edge
// each counter must equal the reference's.
TEST_P(ReferenceLockstep, EveryCoreCycleMatchesTickingEverything) {
  const auto& [app, policy, sched] = GetParam();
  const Workload wl = MakeWorkload(app, kScale);
  const SimConfig cfg = ConfigFor(policy);
  GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm, sched);
  ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm, sched);

  std::vector<Reading> got;
  std::vector<Reading> want;
  std::uint64_t active_ticks = 0;  // core cycles of cores not yet inactive
  std::uint64_t skipped = 0;       // of those, ticks GpuSimulator skipped
  while (!ref.Done() && ref.core_cycles() < cfg.max_core_cycles) {
    // The core domain fires first on a shared edge, so Due reads the
    // crossbar exactly as the core loop will.
    const Cycle next = fast.core_cycles() + 1;
    std::uint64_t would_skip = 0;
    std::uint64_t active = 0;
    for (const SmCore& core : fast.cores()) {
      if (core.Inactive()) continue;
      ++active;
      if (!core.Due(next, fast.icnt())) ++would_skip;
    }
    fast.Step();
    ref.Step();
    ASSERT_EQ(fast.core_cycles(), ref.core_cycles());
    if (fast.core_cycles() != next) continue;  // not a core clock edge
    active_ticks += active;
    skipped += would_skip;
    Read(fast, &got);
    Read(ref.gpu(), &want);
    ASSERT_EQ(FirstDifference(got, want), "") << "core cycle " << next;
  }
  ASSERT_TRUE(ref.Done());
  EXPECT_TRUE(fast.Done());
  if (sched == SchedulerKind::kLrr) {
    EXPECT_EQ(skipped, 0u) << "LRR cores never skip";
  } else if (!wl.info.cache_insufficient) {
    EXPECT_GT(skipped * 2, active_ticks)
        << skipped << " of " << active_ticks << " core ticks skipped";
  } else {
    EXPECT_GT(skipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CsAndCiApps, ReferenceLockstep,
    ::testing::Values(
        LockstepParam{"HS", PolicyKind::kBaseline, SchedulerKind::kGto},
        LockstepParam{"HS", PolicyKind::kDlp, SchedulerKind::kGto},
        LockstepParam{"SC", PolicyKind::kBaseline, SchedulerKind::kGto},
        LockstepParam{"SC", PolicyKind::kDlp, SchedulerKind::kGto},
        LockstepParam{"BFS", PolicyKind::kBaseline, SchedulerKind::kGto},
        LockstepParam{"BFS", PolicyKind::kDlp, SchedulerKind::kGto},
        LockstepParam{"KM", PolicyKind::kBaseline, SchedulerKind::kGto},
        LockstepParam{"KM", PolicyKind::kDlp, SchedulerKind::kGto},
        // Misses wait in the L1D behind full injection ports.
        LockstepParam{"STR", PolicyKind::kBaseline, SchedulerKind::kGto},
        LockstepParam{"STR", PolicyKind::kDlp, SchedulerKind::kGto},
        LockstepParam{"HS", PolicyKind::kDlp, SchedulerKind::kLrr}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             PolicyName(std::get<1>(info.param)) +
             (std::get<2>(info.param) == SchedulerKind::kGto ? "_gto"
                                                             : "_lrr");
    });

// --- whole runs -------------------------------------------------------------

/// Steps `ref` as GpuSimulator::Run steps: until drained or the cycle cap.
void RunToEnd(ReferenceStepper& ref, const SimConfig& cfg) {
  while (!ref.Done() && ref.core_cycles() < cfg.max_core_cycles) ref.Step();
}

using RunParam = std::tuple<std::string, PolicyKind>;

class ReferenceRun : public ::testing::TestWithParam<RunParam> {};

TEST_P(ReferenceRun, MetricsMatchTickingEverything) {
  const auto& [app, policy] = GetParam();
  const Workload wl = MakeWorkload(app, kScale);
  const SimConfig cfg = ConfigFor(policy);
  GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm);
  ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm,
                       SchedulerKind::kGto);
  const Metrics got = fast.Run();
  RunToEnd(ref, cfg);
  EXPECT_EQ(got.completed, 1u);
  EXPECT_EQ(got.ToText(), ref.Result().ToText());
  std::vector<Reading> a;
  std::vector<Reading> b;
  Read(fast, &a);
  Read(ref.gpu(), &b);
  EXPECT_EQ(FirstDifference(a, b), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ReferenceRun,
    ::testing::Combine(::testing::ValuesIn(AllAppAbbrs()),
                       ::testing::Values(PolicyKind::kBaseline,
                                         PolicyKind::kDlp)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             PolicyName(std::get<1>(info.param));
    });

// A run cut short by max_core_cycles stops in the middle of core skips;
// Run must apply them before it collects.
TEST(ReferenceRun, CutShortRunsMatchAtTheCap) {
  for (const char* app : {"HS", "SC", "BFS"}) {
    const Workload wl = MakeWorkload(app, kScale);
    SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
    const Cycle full =
        GpuSimulator(cfg, wl.program.get(), wl.warps_per_sm).Run().core_cycles;
    for (const Cycle cap : {full / 7 + 1, full / 3 + 2, full * 2 / 3 + 3}) {
      SCOPED_TRACE(::testing::Message() << app << " cap " << cap);
      cfg.max_core_cycles = cap;
      GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm);
      ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm,
                           SchedulerKind::kGto);
      const Metrics got = fast.Run();
      RunToEnd(ref, cfg);
      ASSERT_EQ(got.completed, 0u) << "the cap should cut the run short";
      EXPECT_EQ(got.ToText(), ref.Result().ToText());
    }
  }
}

std::string Describe(const TimelineSample& s) {
  std::ostringstream os;
  os.precision(17);
  os << "cycle " << s.cycle << "\ncumulative\n"
     << s.cumulative.ToText() << "delta\n"
     << s.delta.ToText() << "policy " << s.policy.mean_pd << ' '
     << s.policy.protected_lines << ' ' << s.policy.samples_taken;
  for (std::uint64_t n : s.policy.pl_histogram) os << ' ' << n;
  return os.str();
}

// Timeline samples land on cycles where most cores are mid-skip; each
// must read what the reference reads on the same cycle.
TEST(ReferenceRun, TimelineSamplesMatchAtTheSameCycles) {
  for (const char* app : {"HS", "KM"}) {
    SCOPED_TRACE(app);
    const Workload wl = MakeWorkload(app, kScale);
    const SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
    constexpr Cycle kInterval = 997;
    TimelineSampler got(kInterval);
    GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm);
    fast.SetTimeline(&got);
    fast.Run();

    TimelineSampler want(kInterval);
    ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm,
                         SchedulerKind::kGto);
    Cycle seen = 0;
    while (!ref.Done() && ref.core_cycles() < cfg.max_core_cycles) {
      ref.Step();
      const Cycle now = ref.core_cycles();
      if (now == seen) continue;
      seen = now;
      if (want.Due(now)) {
        want.Record(now, ref.Collect(), ref.gpu().SnapshotPolicy());
      }
    }
    want.Record(ref.core_cycles(), ref.Result(), ref.gpu().SnapshotPolicy());

    ASSERT_GT(want.samples().size(), 3u);
    ASSERT_EQ(got.samples().size(), want.samples().size());
    for (std::size_t i = 0; i < want.samples().size(); ++i) {
      ASSERT_EQ(Describe(got.samples()[i]), Describe(want.samples()[i]))
          << "sample " << i;
    }
  }
}

}  // namespace
}  // namespace dlpsim
