// Invariant-checker tests: every check passes on a healthy cache and
// engine, catches a planted corruption, and never changes simulation
// results.
#include "robust/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/l1d_cache.h"
#include "gpu/simulator.h"
#include "icnt/crossbar.h"
#include "mem/dram.h"
#include "mem/partition.h"
#include "workloads/registry.h"

namespace dlpsim::robust {
namespace {

L1DConfig SmallConfig(PolicyKind kind = PolicyKind::kDlp) {
  L1DConfig cfg;
  cfg.geom.sets = 4;
  cfg.geom.ways = 2;
  cfg.geom.index = IndexFunction::kLinear;
  cfg.mshr_entries = 4;
  cfg.mshr_max_merged = 2;
  cfg.miss_queue_entries = 4;
  cfg.policy = kind;
  return cfg;
}

/// Fills a handful of lines so every structure has occupied state.
void WarmUp(L1DCache& cache) {
  std::vector<MshrToken> woken;
  MshrToken token = 1;
  for (Addr addr = 0; addr < 8 * 128; addr += 128) {
    const Pc pc = static_cast<Pc>(addr / 128);
    cache.Access(MemAccess{addr, AccessType::kLoad, pc, token++}, 0);
    while (cache.HasOutgoing()) {
      const L1DOutgoing out = cache.PopOutgoing();
      if (out.write) continue;
      woken.clear();
      cache.Fill(L1DResponse{out.block, out.no_fill, out.token}, 0, woken);
    }
  }
}

TEST(Invariants, HealthyCachePassesEveryCheck) {
  for (PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    L1DCache cache(SmallConfig(kind));
    WarmUp(cache);
    SCOPED_TRACE(ToString(kind));
    EXPECT_EQ(CheckL1D(cache), "");
  }
}

TEST(Invariants, CatchesPlFieldOverflow) {
  L1DCache cache(SmallConfig());
  WarmUp(cache);
  // Plant a PL value that cannot fit the 4-bit hardware field.
  cache.mutable_tda().At(0, 0).protected_life = 99;
  EXPECT_NE(CheckPlClamp(cache), "");
  EXPECT_NE(CheckL1D(cache), "");
}

TEST(Invariants, CatchesReservedLineWithoutMshr) {
  L1DCache cache(SmallConfig());
  WarmUp(cache);
  CacheLine& line = cache.mutable_tda().At(2, 0);
  ASSERT_TRUE(IsFilled(line.state));
  line.state = LineState::kReserved;  // no MSHR entry backs this
  EXPECT_NE(CheckMshrConsistency(cache), "");
}

TEST(Invariants, CatchesDuplicateLruStamps) {
  L1DCache cache(SmallConfig());
  WarmUp(cache);
  CacheLine& a = cache.mutable_tda().At(3, 0);
  CacheLine& b = cache.mutable_tda().At(3, 1);
  ASSERT_TRUE(IsOccupied(a.state));
  ASSERT_TRUE(IsOccupied(b.state));
  b.last_use = a.last_use;  // LRU can no longer order the set
  EXPECT_NE(CheckLruValidity(cache), "");
}

TEST(Invariants, CheckerThrowsStructuredErrorOnCorruptedGpu) {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  ProgramBuilder b(4);
  b.Alu(4).LoadPrivate(2);
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 2);

  // Run a few steps so lines exist, then corrupt one core's L1D.
  for (int i = 0; i < 20000 && !gpu.Done(); ++i) gpu.Step();
  L1DCache& l1d = gpu.cores()[1].l1d();
  bool planted = false;
  for (std::uint32_t set = 0; set < l1d.config().geom.sets && !planted;
       ++set) {
    for (std::uint32_t way = 0; way < l1d.config().geom.ways; ++way) {
      CacheLine& line = l1d.mutable_tda().At(set, way);
      if (IsOccupied(line.state)) {
        line.protected_life = 99;
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted) << "no occupied line to corrupt";

  InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
  try {
    checker.CheckAll(gpu, gpu.core_cycles());
    FAIL() << "corruption not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.where(), "sm1");
    EXPECT_EQ(e.check(), "pl_clamp");
    EXPECT_NE(std::string(e.what()).find("sm1"), std::string::npos);
  }
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_FALSE(checker.last_violation().empty());
}

TEST(Invariants, NonThrowingCheckerRecordsViolations) {
  L1DCache cache(SmallConfig());
  WarmUp(cache);
  cache.mutable_tda().At(0, 0).protected_life = 42;

  // Free-function layer only (no GpuSimulator needed): the violation
  // description names the failing check.
  const std::string v = CheckL1D(cache);
  EXPECT_NE(v.find("pl_clamp"), std::string::npos);
}

TEST(Invariants, CheckedRunMatchesUncheckedByteForByte) {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  ProgramBuilder b(8);
  b.Alu(8).LoadStream().LoadPrivate(2).StoreStream();
  auto prog = b.Build();

  GpuSimulator plain(cfg, prog.get(), 4);
  const Metrics ref = plain.Run();

  InvariantChecker checker(/*check_interval=*/512,
                           /*throw_on_violation=*/true);
  GpuSimulator checked(cfg, prog.get(), 4);
  checked.SetInvariantChecker(&checker);
  const Metrics m = checked.Run();

  EXPECT_GT(checker.checks_run(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(m.ToText(), ref.ToText());
}

// --- engine invariants (DESIGN.md section 5) ------------------------------

TEST(Invariants, CatchesCrossbarPacketDueBeforeItsPredecessor) {
  IcntConfig cfg;
  cfg.latency = 8;
  cfg.bytes_per_cycle_per_port = 32;
  Crossbar xbar(cfg, 2, 2);
  for (std::uint32_t c = 0; c < 2; ++c) {
    IcntPacket p;
    p.src = c;
    p.dst = c;
    xbar.InjectFromCore(c, p);
    xbar.Tick(c + 1);  // the packets serialize on cycles 1 and 2
  }
  ASSERT_EQ(xbar.in_transit().size(), 2u);
  EXPECT_EQ(CheckCrossbar(xbar), "");
  // A per-packet hop latency: the second packet would land first.
  xbar.mutable_in_transit()[1].deliver_at = 3;
  EXPECT_NE(CheckCrossbar(xbar).find("icnt_order"), std::string::npos);
}

// GpuSimulator skips the crossbar's tick until next_due(), and Tick visits
// only the busy ports: a port outside the busy set, or work due before
// next_due(), would move late.
TEST(Invariants, CatchesCrossbarBusySetDrift) {
  Crossbar xbar(IcntConfig{}, 2, 2);
  IcntPacket p;
  xbar.InjectFromCore(0, p);
  EXPECT_EQ(CheckCrossbar(xbar), "");
  // Queued behind the busy set's back: no tick would ever visit it.
  xbar.mutable_ports()[3].push_back(p);
  EXPECT_NE(CheckCrossbar(xbar).find("icnt_busy"), std::string::npos);
}

TEST(Invariants, CatchesCrossbarDueAfterItsWork) {
  IcntConfig cfg;
  cfg.latency = 8;
  cfg.bytes_per_cycle_per_port = 32;
  Crossbar xbar(cfg, 2, 2);
  IcntPacket p;
  p.bytes = 136;  // 5 cycles at 32 B/cycle
  xbar.InjectFromCore(0, p);
  xbar.InjectFromCore(0, p);
  xbar.Tick(1);  // the first head finishes on cycle 5
  ASSERT_EQ(xbar.NextDue(2), 5u);
  EXPECT_EQ(CheckCrossbar(xbar), "");
  // A serialization shortened behind the crossbar's back.
  xbar.mutable_done_at()[0] = 3;
  EXPECT_NE(CheckCrossbar(xbar).find("icnt_next_due"), std::string::npos);
  xbar.mutable_done_at()[0] = 5;
  for (Cycle now = 2; now <= 5; ++now) xbar.Tick(now);
  ASSERT_EQ(xbar.in_transit().size(), 1u);
  ASSERT_EQ(xbar.NextDue(6), 10u);  // the second head
  EXPECT_EQ(CheckCrossbar(xbar), "");
  // A hop that shrank behind its back: the packet lands before next_due.
  xbar.mutable_in_transit().front().deliver_at = 7;
  EXPECT_NE(CheckCrossbar(xbar).find("icnt_next_due"), std::string::npos);
}

TEST(Invariants, CatchesDramCompletionOutOfIssueOrder) {
  DramConfig cfg;
  cfg.banks = 2;
  cfg.row_bytes = 512;
  DramChannel dram(cfg, 128);
  dram.Enqueue(DramChannel::Request{0, false, 1});
  dram.Enqueue(DramChannel::Request{4, false, 2});  // the other bank
  std::vector<DramChannel::Completion> done;
  for (Cycle now = 0; dram.in_service().size() < 2 && now < 100; ++now) {
    dram.Tick(now, done);
  }
  ASSERT_EQ(dram.in_service().size(), 2u);
  EXPECT_EQ(CheckDram(dram), "");
  // A bank-local completion time that ignores the shared data bus.
  auto& service = dram.mutable_in_service();
  service[1].done_at = service[0].done_at - 1;
  EXPECT_NE(CheckDram(dram).find("dram_order"), std::string::npos);
}

TEST(Invariants, CatchesReplyFifoOutOfOrder) {
  SimConfig sim;
  sim.num_partitions = 1;
  MemoryPartition partition(sim, 0);
  auto& replies = partition.mutable_l2_replies();
  replies.push_back(MemoryPartition::PendingReply{IcntPacket{}, 40, 0});
  replies.push_back(MemoryPartition::PendingReply{IcntPacket{}, 40, 1});
  EXPECT_EQ(CheckPartition(partition, 0), "");
  // An L2 latency that shrank between two hits.
  replies.push_back(MemoryPartition::PendingReply{IcntPacket{}, 30, 2});
  EXPECT_NE(CheckPartition(partition, 0).find("reply_order"),
            std::string::npos);
}

TEST(Invariants, CatchesL2MshrCorruption) {
  SimConfig sim;
  sim.num_partitions = 1;
  MemoryPartition healthy(sim, 0);
  L2Cache& l2 = healthy.mutable_l2();
  for (Addr block : {1, 1, 2, 3}) l2.AccessRead(block, IcntPacket{});
  std::vector<IcntPacket> waiters;
  l2.Fill(3, waiters);  // one pooled waiter node is free
  ASSERT_EQ(l2.mshr().entries().size(), 2u);
  ASSERT_EQ(l2.mshr().entries()[0].count, 2u);
  EXPECT_EQ(CheckPartition(healthy, 0), "");

  using Entries = std::vector<MshrTableOf<IcntPacket>::Entry>;
  const auto planted = [&](void (*plant)(Entries&)) {
    MemoryPartition partition = healthy;
    plant(partition.mutable_l2().mutable_mshr().mutable_entries());
    return CheckPartition(partition, 0);
  };
  // Two entries for one block.
  EXPECT_NE(planted([](Entries& e) { e[1].block = e[0].block; })
                .find("l2_mshr: block 1 has two entries"),
            std::string::npos);
  // More waiters than the merge limit.
  EXPECT_NE(planted([](Entries& e) { e[0].count = 9; }).find("9 waiters"),
            std::string::npos);
  // A waiter node dropped from its list without being freed.
  EXPECT_NE(planted([](Entries& e) { e[0].count = 1; })
                .find("neither a live waiter nor free"),
            std::string::npos);
  // Two lists that share a node.
  EXPECT_NE(planted([](Entries& e) { e[1].head = e[0].head; })
                .find("already on a list"),
            std::string::npos);
}

SimConfig TwoCoreGpu() {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kBaseline);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  return cfg;
}

TEST(Invariants, CatchesFinishedCountDrift) {
  ProgramBuilder b(2);
  b.Alu(2).LoadPrivate(1);
  auto prog = b.Build();
  GpuSimulator gpu(TwoCoreGpu(), prog.get(), 3);
  SmCore& core = gpu.cores()[0];
  EXPECT_EQ(CheckSmCore(core, gpu.core_cycles()), "");
  // Retire every warp behind the core's back: its count never hears.
  for (Warp& w : core.mutable_warps()) {
    while (!w.Finished()) w.AdvanceIssue(0);
  }
  EXPECT_NE(CheckSmCore(core, gpu.core_cycles()).find("finished_count"),
            std::string::npos);
}

TEST(Invariants, CatchesReadySetDrift) {
  ProgramBuilder b(4);
  b.Alu(2).LoadPrivate(2);
  auto prog = b.Build();
  {
    GpuSimulator gpu(TwoCoreGpu(), prog.get(), 4);
    SmCore& core = gpu.cores()[0];
    // Blocked without telling its scheduler: still in the ready set.
    core.mutable_warps()[1].BlockOnMem(0);
    EXPECT_NE(CheckSmCore(core, gpu.core_cycles()).find("waits on memory"),
              std::string::npos);
  }
  {
    GpuSimulator gpu(TwoCoreGpu(), prog.get(), 4);
    SmCore& core = gpu.cores()[0];
    while (core.warps()[0].Quiescent() && !gpu.Done()) {
      gpu.Step();
      ASSERT_EQ(CheckSmCore(core, gpu.core_cycles()), "");
    }
    ASSERT_TRUE(core.warps()[0].WaitingOnMem());
    // Woken without telling its scheduler: missing from the ready set.
    Warp& w = core.mutable_warps()[0];
    w.OnMemOpDispatched();
    while (w.outstanding() > 0) w.OnTransactionDone();
    EXPECT_NE(CheckSmCore(core, gpu.core_cycles()).find("missing"),
              std::string::npos);
  }
}

// GpuSimulator skips a core's ticks through cruise_end(); nothing outside
// TickCore may change the core's issue side meanwhile.
TEST(Invariants, CatchesCoreCruiseDrift) {
  ProgramBuilder b(4);
  b.Alu(400).LoadPrivate(1);
  auto prog = b.Build();
  const auto cruising = [](GpuSimulator& gpu) -> SmCore& {
    SmCore& core = gpu.cores()[1];
    while (core.cruise_end() <= gpu.core_cycles() && !gpu.Done()) gpu.Step();
    return core;
  };
  const auto expect_caught = [](GpuSimulator& gpu, const char* what) {
    InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
    try {
      checker.CheckAll(gpu, gpu.core_cycles());
      ADD_FAILURE() << what << " not detected";
    } catch (const InvariantError& e) {
      EXPECT_EQ(e.check(), "core_cruise") << e.what();
      EXPECT_EQ(e.where(), "sm1");
      EXPECT_NE(e.details().find(what), std::string::npos) << e.what();
    }
  };
  {
    GpuSimulator gpu(TwoCoreGpu(), prog.get(), 4);
    SmCore& core = cruising(gpu);
    ASSERT_GT(core.cruise_end(), gpu.core_cycles());
    InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
    checker.CheckAll(gpu, gpu.core_cycles());
    // The greedy warp issues behind the core's back: its ALU block now
    // ends inside the skip.
    Warp& w = core.mutable_warps()[core.schedulers()[0].greedy()];
    while (w.SlotsLeft() > 1) w.AdvanceIssue(gpu.core_cycles());
    expect_caught(gpu, "slots left");
  }
  {
    GpuSimulator gpu(TwoCoreGpu(), prog.get(), 4);
    SmCore& core = cruising(gpu);
    // A miss queued outside the LD/ST unit would sit unsent.
    core.l1d().Access(MemAccess{1 << 20, AccessType::kLoad, 0, 0},
                      gpu.core_cycles());
    ASSERT_TRUE(core.l1d().HasOutgoing());
    expect_caught(gpu, "outgoing");
  }
}

TEST(Invariants, CheckAllNamesTheEngineComponent) {
  GpuSimulator gpu(TwoCoreGpu(), nullptr, 1);
  auto& replies = gpu.partitions()[1].mutable_l2_replies();
  replies.push_back(MemoryPartition::PendingReply{IcntPacket{}, 9, 0});
  replies.push_back(MemoryPartition::PendingReply{IcntPacket{}, 8, 1});
  InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
  try {
    checker.CheckAll(gpu, 0);
    FAIL() << "disorder not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.check(), "reply_order");
    EXPECT_EQ(e.where(), "partition1");
  }
}

TEST(Invariants, CatchesPartitionDueAfterItsWork) {
  GpuSimulator gpu(TwoCoreGpu(), nullptr, 1);
  gpu.Step();  // the first memory cycle finds nothing due anywhere
  MemoryPartition& partition = gpu.partitions()[1];
  const Cycle ready_at = gpu.mem_cycles() + 10;
  ASSERT_GT(partition.next_due(), ready_at);
  InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
  checker.CheckAll(gpu, gpu.core_cycles());
  // A reply scheduled behind the partition's back: its tick would be
  // skipped past the cycle the reply falls due.
  partition.mutable_l2_replies().push_back(
      MemoryPartition::PendingReply{IcntPacket{}, ready_at, 0});
  try {
    checker.CheckAll(gpu, gpu.core_cycles());
    FAIL() << "reply due before next_due() not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.check(), "next_due");
    EXPECT_EQ(e.where(), "partition1");
  }
}

// Every engine check holds on every core cycle of a run whose crossbar
// keeps packets waiting behind full delivery queues.
TEST(Invariants, EngineChecksHoldUnderBackpressure) {
  const Workload wl = MakeWorkload("STR", 0.02);
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.max_core_cycles = 100000;  // the run drains in about 3,300
  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  InvariantChecker checker(/*check_interval=*/1, /*throw_on_violation=*/true);
  gpu.SetInvariantChecker(&checker);
  std::size_t most_waiting = 0;
  std::uint64_t cruising = 0;  // core cycles checked mid-skip
  while (!gpu.Done() && gpu.core_cycles() < cfg.max_core_cycles) {
    gpu.Step();
    const Crossbar& icnt = gpu.icnt();
    most_waiting = std::max(most_waiting, icnt.Depths().in_flight -
                                              icnt.in_transit().size());
    for (const SmCore& core : gpu.cores()) {
      if (core.cruise_end() > gpu.core_cycles()) ++cruising;
    }
  }
  ASSERT_TRUE(gpu.Done());
  EXPECT_GT(checker.checks_run(), 1000u);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_GT(most_waiting, 100u);
  EXPECT_GT(cruising, 1000u);
}

TEST(Invariants, EnvKnobControlsChecker) {
  // DLPSIM_CHECK=1 enables, =0 disables, regardless of the build default.
  ASSERT_EQ(::setenv("DLPSIM_CHECK", "1", 1), 0);
  EXPECT_TRUE(ChecksEnabledByEnv());
  EXPECT_NE(MakeCheckerFromEnv(), nullptr);
  ASSERT_EQ(::setenv("DLPSIM_CHECK", "0", 1), 0);
  EXPECT_FALSE(ChecksEnabledByEnv());
  EXPECT_EQ(MakeCheckerFromEnv(), nullptr);
  ::unsetenv("DLPSIM_CHECK");
}

}  // namespace
}  // namespace dlpsim::robust
