// Parameterized property sweep: for every management policy x cache
// geometry x scheduler, a small thrashing kernel must complete and
// satisfy the cache-accounting invariants. This is the broad-coverage
// net that catches policy/geometry interactions unit tests miss.
#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

// gtest prints a parameter without a PrintTo overload as its raw bytes,
// and ctest's discovered test names embed that print. Implicit padding
// would leak stack garbage (including ASLR'd addresses) into the names,
// so the padding is spelled out and zeroed.
struct SweepParam {
  PolicyKind policy;
  std::uint8_t pad0[3] = {};
  std::uint32_t ways;
  SchedulerKind sched;
  WritePolicy write;
  std::uint8_t pad1[2] = {};
};
static_assert(sizeof(SweepParam) == 12);

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = ToString(info.param.policy);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += "_w" + std::to_string(info.param.ways);
  name += info.param.sched == SchedulerKind::kGto ? "_gto" : "_lrr";
  name += info.param.write == WritePolicy::kWriteBackOnHit ? "_wb" : "_we";
  return name;
}

class PolicySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicySweep, CompletesAndConserves) {
  const SweepParam p = GetParam();
  SimConfig cfg = SimConfig::WithPolicy(p.policy);
  cfg.num_cores = 2;
  cfg.num_partitions = 3;
  cfg.l1d.geom.ways = p.ways;
  cfg.l1d.write_policy = p.write;
  cfg.max_core_cycles = 600000;

  ProgramBuilder b(24);
  b.LoadIndirect(2048, 0.2, 0x77)
      .LoadPrivate(2)
      .LoadShared(6, 4)
      .LoadStream(8)
      .StoreStream()
      .Alu(10);
  auto prog = b.Build();

  GpuSimulator gpu(cfg, prog.get(), 16, p.sched);
  const Metrics m = gpu.Run();

  ASSERT_EQ(m.completed, 1u);
  // Work is policy/geometry independent.
  EXPECT_EQ(m.committed_thread_insns, 2ull * 16 * 24 * 15 * 32);
  // Accounting identities.
  EXPECT_EQ(m.l1d_loads, m.l1d_load_hits + m.l1d_load_misses);
  EXPECT_EQ(m.l1d_load_misses,
            m.l1d_misses_issued + m.l1d_mshr_merges + m.l1d_bypasses);
  EXPECT_EQ(m.l1d_fills, m.l1d_misses_issued);
  EXPECT_EQ(m.l1d_accesses, m.l1d_loads + m.l1d_stores);
  // Evictions cannot exceed fills (only filled lines are displaced) and
  // writebacks cannot exceed evictions.
  EXPECT_LE(m.l1d_evictions, m.l1d_fills);
  EXPECT_LE(m.l1d_writebacks, m.l1d_evictions);
  // Non-bypassing policies never bypass.
  if (p.policy == PolicyKind::kBaseline) {
    EXPECT_EQ(m.l1d_bypasses, 0u);
  }
  // DRAM writes only arise from stores/writebacks, which exist here.
  EXPECT_GT(m.dram_writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> params;
      for (PolicyKind policy :
           {PolicyKind::kBaseline, PolicyKind::kStallBypass,
            PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
        for (std::uint32_t ways : {2u, 4u, 8u}) {
          params.push_back({.policy = policy,
                            .ways = ways,
                            .sched = SchedulerKind::kGto,
                            .write = WritePolicy::kWriteBackOnHit});
        }
        // Scheduler and write-policy variants at baseline geometry.
        params.push_back({.policy = policy,
                          .ways = 4u,
                          .sched = SchedulerKind::kLrr,
                          .write = WritePolicy::kWriteBackOnHit});
        params.push_back({.policy = policy,
                          .ways = 4u,
                          .sched = SchedulerKind::kGto,
                          .write = WritePolicy::kWriteEvict});
      }
      return params;
    }()),
    ParamName);

// Protected-life bound: after any DLP run, no line's PL may exceed the
// 4-bit field and no PD may exceed pd_max.
TEST(DlpInvariants, FieldWidthBoundsHold) {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.num_cores = 1;
  cfg.num_partitions = 2;
  ProgramBuilder b(40);
  b.LoadIndirect(1024, 0.0, 1).LoadPrivate(1).StoreStream().Alu(5);
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 16);
  gpu.Run();

  const L1DCache& l1d = gpu.cores()[0].l1d();
  const std::uint32_t pd_max = cfg.l1d.prot.pd_max();
  for (std::uint32_t set = 0; set < cfg.l1d.geom.sets; ++set) {
    for (const CacheLine& line : l1d.tda().SetView(set)) {
      EXPECT_LE(line.protected_life, pd_max);
      EXPECT_LT(line.insn_id, cfg.l1d.prot.pdpt_entries);
    }
  }
  const PdpTable* pdpt = l1d.policy().pdpt();
  ASSERT_NE(pdpt, nullptr);
  for (std::uint32_t i = 0; i < pdpt->size(); ++i) {
    EXPECT_LE(pdpt->Pd(i), pd_max);
  }
}

}  // namespace
}  // namespace dlpsim
