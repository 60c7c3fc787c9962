#include "workloads/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

namespace dlpsim {
namespace {

TEST(Registry, Has18AppsInPaperOrder) {
  const auto& apps = AllApps();
  ASSERT_EQ(apps.size(), 18u);
  EXPECT_EQ(apps.front().abbr, "HG");
  EXPECT_EQ(apps.back().abbr, "STR");
  // 9 CS then 9 CI (Table 2 layout).
  for (int i = 0; i < 9; ++i) EXPECT_FALSE(apps[i].cache_insufficient);
  for (int i = 9; i < 18; ++i) EXPECT_TRUE(apps[i].cache_insufficient);
}

TEST(Registry, CsCiSplitMatchesTable2) {
  const std::vector<std::string> cs_list = CsAppAbbrs();
  const std::vector<std::string> ci_list = CiAppAbbrs();
  EXPECT_EQ(cs_list.size(), 9u);
  EXPECT_EQ(ci_list.size(), 9u);
  const std::set<std::string> cs(cs_list.begin(), cs_list.end());
  EXPECT_TRUE(cs.count("GEMM"));
  EXPECT_TRUE(cs.count("SRAD"));
  const std::set<std::string> ci(ci_list.begin(), ci_list.end());
  EXPECT_TRUE(ci.count("BFS"));
  EXPECT_TRUE(ci.count("KM"));
}

TEST(Registry, UnknownAppThrows) {
  EXPECT_THROW(MakeWorkload("NOPE"), std::out_of_range);
  EXPECT_THROW(MakeWorkload(""), std::out_of_range);
  EXPECT_THROW(MakeWorkload("HG", 0.0), std::out_of_range);
}

// A scale MakeWorkload cannot build is a typed error, never a wrapped or
// garbage iteration count.
TEST(Registry, OutOfRangeScaleIsTypedError) {
  for (const double scale :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1.0, 0.0, 1e12,
        kMaxScale * 1.000001}) {
    SCOPED_TRACE(scale);
    EXPECT_FALSE(ScaleInRange(scale));
    EXPECT_THROW(MakeWorkload("HS", scale), ScaleError);
  }
  EXPECT_TRUE(ScaleInRange(kMaxScale));
  EXPECT_TRUE(ScaleInRange(1e-9));
  // At the largest scale every app's count is exact: base * kMaxScale.
  for (const AppInfo& app : AllApps()) {
    const Workload unit = MakeWorkload(app.abbr, 1.0);
    const Workload max = MakeWorkload(app.abbr, kMaxScale);
    EXPECT_LE(unit.program->iterations(), kMaxBaseIterations) << app.abbr;
    EXPECT_EQ(std::uint64_t{max.program->iterations()},
              std::uint64_t{unit.program->iterations()} *
                  static_cast<std::uint64_t>(kMaxScale))
        << app.abbr;
  }
}

// ParseScale takes a whole string naming a scale MakeWorkload builds and
// nothing else; a refusal leaves the scale alone and names the range.
TEST(Registry, ParseScaleTakesOnlyScalesMakeWorkloadBuilds) {
  double scale = 0.5;
  for (const char* text : {"nan", "inf", "-1", "0", " 0.5", "0.05abc",
                           "0x1p-3", "1e999", "1e12", "21474837"}) {
    std::string err;
    EXPECT_FALSE(ParseScale(text, &scale, &err)) << text;
    EXPECT_EQ(scale, 0.5) << text;
    EXPECT_EQ(err.rfind(std::string("bad scale '") + text + "': ", 0), 0u)
        << err;
    EXPECT_NE(err.find("21474836"), std::string::npos) << err;
  }
  EXPECT_FALSE(ParseScale("0", &scale));
  ASSERT_TRUE(ParseScale("21474836", &scale));
  EXPECT_EQ(scale, kMaxScale);
  ASSERT_TRUE(ParseScale("1e-3", &scale));
  EXPECT_EQ(scale, 1e-3);
}

TEST(Registry, EveryAppBuilds) {
  for (const AppInfo& app : AllApps()) {
    const Workload wl = MakeWorkload(app.abbr, 0.1);
    EXPECT_EQ(wl.info.abbr, app.abbr);
    ASSERT_NE(wl.program, nullptr);
    EXPECT_FALSE(wl.program->body().empty());
    EXPECT_GT(wl.warps_per_sm, 0u);
    EXPECT_LE(wl.warps_per_sm, 48u);  // Table 1 limit
  }
}

TEST(Registry, MemoryRatioSeparatesCsFromCi) {
  // Paper §3.2: the CS/CI threshold is a 1% memory access ratio. Our CI
  // kernels sit above it and CS kernels below it (see EXPERIMENTS.md for
  // the absolute-value caveat).
  for (const AppInfo& app : AllApps()) {
    const Workload wl = MakeWorkload(app.abbr, 0.1);
    const double ratio = wl.program->MemoryAccessRatio();
    if (app.cache_insufficient) {
      EXPECT_GE(ratio, 0.01) << app.abbr;
    } else {
      EXPECT_LT(ratio, 0.01) << app.abbr;
    }
  }
}

TEST(Registry, MemoryPcCountsFitThePdpt) {
  // Paper §4.1.3: at most 128 load instructions per kernel.
  for (const AppInfo& app : AllApps()) {
    const Workload wl = MakeWorkload(app.abbr, 0.1);
    EXPECT_LE(wl.program->NumMemoryPcs(), 128u) << app.abbr;
  }
}

TEST(Registry, BfsHasTheFig7InstructionDiversity) {
  const Workload wl = MakeWorkload("BFS", 0.1);
  EXPECT_GE(wl.program->NumMemoryPcs(), 10u);
}

TEST(Registry, ScaleControlsIterations) {
  const Workload small = MakeWorkload("SRK", 0.1);
  const Workload big = MakeWorkload("SRK", 1.0);
  EXPECT_LT(small.program->iterations(), big.program->iterations());
  // Static properties are scale-invariant.
  EXPECT_EQ(small.program->NumMemoryPcs(), big.program->NumMemoryPcs());
  EXPECT_DOUBLE_EQ(small.program->MemoryAccessRatio(),
                   big.program->MemoryAccessRatio());
}

TEST(ProgramBuilder, RegionsAreDisjoint) {
  ProgramBuilder b(4);
  b.LoadPrivate(8).LoadPrivate(8);
  auto prog = b.Build();
  const auto& body = prog->body();
  ASSERT_EQ(body.size(), 2u);
  // The two patterns live 4 GiB apart: no line can alias.
  EXPECT_NE(body[0].pattern->base(), body[1].pattern->base());
  EXPECT_GE(body[1].pattern->base() - body[0].pattern->base(), 1ull << 32);
}

TEST(ProgramBuilder, PcsAreUniquePerMemoryInstruction) {
  ProgramBuilder b(4);
  b.LoadStream().Alu(5).LoadPrivate(2).StoreStream();
  auto prog = b.Build();
  std::set<Pc> pcs;
  for (const Instruction& i : prog->body()) {
    if (i.pattern != nullptr) EXPECT_TRUE(pcs.insert(i.pc).second);
  }
  EXPECT_EQ(pcs.size(), 3u);
}

TEST(Program, CountsAndRatios) {
  ProgramBuilder b(10);
  b.Alu(97).LoadStream().Alu(2).StoreStream();
  auto prog = b.Build();
  EXPECT_EQ(prog->IssuesPerIteration(), 101u);
  EXPECT_EQ(prog->MemOpsPerIteration(), 2u);
  EXPECT_EQ(prog->ThreadInstructionsPerWarp(32), 101u * 10u * 32u);
  EXPECT_NEAR(prog->MemoryAccessRatio(), 2.0 / 101.0, 1e-12);
  EXPECT_EQ(prog->NumMemoryPcs(), 2u);
}

}  // namespace
}  // namespace dlpsim
