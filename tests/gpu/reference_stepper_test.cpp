// GpuSimulator against a reference stepper that ticks every component on
// every clock-domain event. The reference drives a second simulator's
// cores, crossbar and partitions directly through cores(), icnt() and
// partitions() with its own ClockDomainSet, so none of GpuSimulator's
// skips runs in it: not the edges where nothing is due and nothing
// ticks, not the crossbar's busy-port set or bulk serialization, and not
// the core and partition NextDue skips. Skipped work must never change
// an observable counter, whether read on every core cycle, at a timeline
// sample, or at the end of a run cut short by max_core_cycles -- under
// Table 1, under other interconnect shapes and clocks, and under faults.
#include "gpu/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "robust/fault.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

constexpr double kScale = 0.02;

/// What the two steppers run besides the app and the policy.
enum class Setup : std::uint8_t {
  kTable1,      // Table 1 as is (first, so its cases keep their names)
  kNarrowIcnt,  // 13 B/cycle ports, 1-cycle hops, an 800 MHz icnt clock
  kWideIcnt,    // 200 B/cycle ports, 60-cycle hops, a 500 MHz icnt clock
  kFaults,      // Table 1 under fabric, partition and MSHR faults
};

std::string SetupName(Setup setup) {
  switch (setup) {
    case Setup::kTable1:
      return "gto";  // Table 1's schedulers
    case Setup::kNarrowIcnt:
      return "narrow_icnt";
    case Setup::kWideIcnt:
      return "wide_icnt";
    case Setup::kFaults:
      return "faults";
  }
  return "?";
}

SimConfig ConfigFor(PolicyKind policy, Setup setup = Setup::kTable1) {
  SimConfig cfg = policy == PolicyKind::kBaseline
                      ? SimConfig::Baseline16KB()
                      : SimConfig::WithPolicy(policy);
  if (setup == Setup::kNarrowIcnt) {
    cfg.icnt.bytes_per_cycle_per_port = 13;
    cfg.icnt.latency = 1;
    cfg.icnt_mhz = 800.0;
  } else if (setup == Setup::kWideIcnt) {
    cfg.icnt.bytes_per_cycle_per_port = 200;
    cfg.icnt.latency = 60;
    cfg.icnt_mhz = 500.0;
  }
  return cfg;
}

/// The seeded plan both steppers apply under Setup::kFaults: fabric,
/// partition and MSHR-blackout stalls spread over the first 2,800 core
/// cycles, inside every run at kScale, each long enough to back work up
/// behind it.
std::unique_ptr<robust::FaultInjector> FaultsFor(Setup setup) {
  if (setup != Setup::kFaults) return nullptr;
  using robust::FaultKind;
  using robust::MaskOf;
  return std::make_unique<robust::FaultInjector>(robust::FaultPlan::Random(
      /*seed=*/21, /*count=*/18, /*horizon=*/2800, /*stall_cycles=*/200,
      MaskOf(FaultKind::kIcntStall) | MaskOf(FaultKind::kMemStall) |
          MaskOf(FaultKind::kMshrBlackout)));
}

class ReferenceStepper {
 public:
  ReferenceStepper(const SimConfig& cfg, const Program* program,
                   std::uint32_t warps_per_sm, Setup setup = Setup::kTable1)
      : gpu_(cfg, program, warps_per_sm), faults_(FaultsFor(setup)) {
    // GpuSimulator's frequencies in its registration order.
    core_ = clocks_.AddDomain("core", cfg.core_mhz);
    icnt_ = clocks_.AddDomain("icnt", cfg.icnt_mhz);
    mem_ = clocks_.AddDomain("mem", cfg.mem_mhz);
  }

  /// One clock-domain event, every component of each fired domain ticked.
  void Step() {
    for (std::uint32_t domain : clocks_.Tick()) {
      if (domain == mem_) {
        for (MemoryPartition& p : gpu_.partitions()) {
          p.Tick(clocks_.cycles(mem_), gpu_.icnt());
        }
      } else if (domain == icnt_) {
        gpu_.icnt().Tick(clocks_.cycles(icnt_));
      } else if (domain == core_) {
        const Cycle now = clocks_.cycles(core_);
        // Faults land where GpuSimulator lands them: on the core edge,
        // before the cores tick.
        if (faults_ != nullptr) faults_->ApplyDue(gpu_, now);
        for (SmCore& core : gpu_.cores()) core.TickCore(now, gpu_.icnt());
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
  const robust::FaultInjector* faults() const { return faults_.get(); }
  bool Done() const { return gpu_.Done(); }
  Cycle core_cycles() const { return clocks_.cycles(core_); }
  Cycle mem_cycles() const { return clocks_.cycles(mem_); }

 private:
  GpuSimulator gpu_;
  std::unique_ptr<robust::FaultInjector> faults_;
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

std::string PolicyName(PolicyKind policy) {
  return policy == PolicyKind::kBaseline ? "base" : "dlp";
}

// --- every core cycle -------------------------------------------------------

using LockstepParam = std::tuple<std::string, PolicyKind, Setup>;

class ReferenceLockstep : public ::testing::TestWithParam<LockstepParam> {};

/// A core whose TickCore is a no-op for good: drained, with no background
/// packet owed.
bool Inactive(const SmCore& core) {
  const std::uint64_t threshold = core.other_traffic_threshold();
  return core.Drained() &&
         (threshold == 0 || core.other_traffic_credit() < threshold);
}

// GpuSimulator::Step ends on the next core clock edge with SyncCores, so
// after every core clock edge each counter, and the memory clock, must
// equal the reference's.
TEST_P(ReferenceLockstep, EveryCoreCycleMatchesTickingEverything) {
  const auto& [app, policy, setup] = GetParam();
  const Workload wl = MakeWorkload(app, kScale);
  const SimConfig cfg = ConfigFor(policy, setup);
  GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm);
  const std::unique_ptr<robust::FaultInjector> faults = FaultsFor(setup);
  fast.SetFaultInjector(faults.get());
  ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm, setup);

  std::vector<Reading> got;
  std::vector<Reading> want;
  std::uint64_t active_ticks = 0;  // core cycles of cores not yet inactive
  std::uint64_t skipped = 0;       // of those, ticks GpuSimulator skipped
  while (!ref.Done() && ref.core_cycles() < cfg.max_core_cycles) {
    // The core domain fires first on a shared edge, and nothing lands in
    // a core's delivery queue between core edges, so NextDue reads the
    // crossbar exactly as the engine will.
    const Cycle next = fast.core_cycles() + 1;
    std::uint64_t would_skip = 0;
    std::uint64_t active = 0;
    for (const SmCore& core : fast.cores()) {
      if (Inactive(core)) continue;
      ++active;
      if (core.NextDue(next, fast.icnt()) > next) ++would_skip;
    }
    fast.Step();
    ASSERT_EQ(fast.core_cycles(), next);
    while (ref.core_cycles() < next) ref.Step();
    ASSERT_EQ(fast.mem_cycles(), ref.mem_cycles()) << "core cycle " << next;
    active_ticks += active;
    skipped += would_skip;
    Read(fast, &got);
    Read(ref.gpu(), &want);
    ASSERT_EQ(FirstDifference(got, want), "") << "core cycle " << next;
  }
  ASSERT_TRUE(ref.Done());
  EXPECT_TRUE(fast.Done());
  if (faults != nullptr) {
    EXPECT_EQ(faults->applied_total(), faults->plan().events.size());
    EXPECT_EQ(ref.faults()->applied_total(), faults->plan().events.size());
  }
  if (!wl.info.cache_insufficient) {
    EXPECT_GT(skipped * 2, active_ticks)
        << skipped << " of " << active_ticks << " core ticks skipped";
  } else {
    EXPECT_GT(skipped, 0u);
  }
}

std::string LockstepName(
    const ::testing::TestParamInfo<LockstepParam>& info) {
  return std::get<0>(info.param) + "_" + PolicyName(std::get<1>(info.param)) +
         "_" + SetupName(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    CsAndCiApps, ReferenceLockstep,
    ::testing::Values(
        LockstepParam{"HS", PolicyKind::kBaseline, Setup::kTable1},
        LockstepParam{"HS", PolicyKind::kDlp, Setup::kTable1},
        LockstepParam{"SC", PolicyKind::kBaseline, Setup::kTable1},
        LockstepParam{"SC", PolicyKind::kDlp, Setup::kTable1},
        LockstepParam{"BFS", PolicyKind::kBaseline, Setup::kTable1},
        LockstepParam{"BFS", PolicyKind::kDlp, Setup::kTable1},
        LockstepParam{"KM", PolicyKind::kBaseline, Setup::kTable1},
        LockstepParam{"KM", PolicyKind::kDlp, Setup::kTable1},
        // Misses wait in the L1D behind full injection ports.
        LockstepParam{"STR", PolicyKind::kBaseline, Setup::kTable1},
        LockstepParam{"STR", PolicyKind::kDlp, Setup::kTable1}),
    LockstepName);

// Interconnects off Table 1: serialization that does not divide the
// packet sizes, one-cycle and long hops, and an icnt clock that runs
// apart from the core clock, so the engine has three edge streams to
// keep in order. And faults: stalls stretch serialization in flight, hold
// partitions and block the L1D while the engine skips.
INSTANTIATE_TEST_SUITE_P(
    IcntAndFaults, ReferenceLockstep,
    ::testing::Values(
        LockstepParam{"HS", PolicyKind::kDlp, Setup::kNarrowIcnt},
        LockstepParam{"BFS", PolicyKind::kBaseline, Setup::kNarrowIcnt},
        LockstepParam{"HS", PolicyKind::kBaseline, Setup::kWideIcnt},
        LockstepParam{"STR", PolicyKind::kDlp, Setup::kWideIcnt},
        LockstepParam{"HS", PolicyKind::kDlp, Setup::kFaults},
        LockstepParam{"BFS", PolicyKind::kDlp, Setup::kFaults},
        LockstepParam{"STR", PolicyKind::kBaseline, Setup::kFaults}),
    LockstepName);

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
  ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm);
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

// Whole runs off Table 1 and under faults, through Run's skips.
using SetupRunParam = std::tuple<std::string, PolicyKind, Setup>;

class ReferenceSetupRun : public ::testing::TestWithParam<SetupRunParam> {};

TEST_P(ReferenceSetupRun, MetricsMatchTickingEverything) {
  const auto& [app, policy, setup] = GetParam();
  const Workload wl = MakeWorkload(app, kScale);
  const SimConfig cfg = ConfigFor(policy, setup);
  GpuSimulator fast(cfg, wl.program.get(), wl.warps_per_sm);
  const std::unique_ptr<robust::FaultInjector> faults = FaultsFor(setup);
  fast.SetFaultInjector(faults.get());
  ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm, setup);
  const Metrics got = fast.Run();
  RunToEnd(ref, cfg);
  EXPECT_EQ(got.completed, 1u);
  EXPECT_EQ(got.ToText(), ref.Result().ToText());
  EXPECT_EQ(fast.mem_cycles(), ref.mem_cycles());
  if (faults != nullptr) {
    EXPECT_EQ(faults->applied_total(), faults->plan().events.size());
    EXPECT_EQ(ref.faults()->applied_total(), faults->plan().events.size());
  }
  std::vector<Reading> a;
  std::vector<Reading> b;
  Read(fast, &a);
  Read(ref.gpu(), &b);
  EXPECT_EQ(FirstDifference(a, b), "");
}

INSTANTIATE_TEST_SUITE_P(
    IcntAndFaults, ReferenceSetupRun,
    ::testing::Combine(::testing::Values("SC", "KM", "SRK", "CFD"),
                       ::testing::Values(PolicyKind::kBaseline,
                                         PolicyKind::kDlp),
                       ::testing::Values(Setup::kNarrowIcnt, Setup::kWideIcnt,
                                         Setup::kFaults)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             PolicyName(std::get<1>(info.param)) + "_" +
             SetupName(std::get<2>(info.param));
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
      ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm);
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
    ReferenceStepper ref(cfg, wl.program.get(), wl.warps_per_sm);
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
