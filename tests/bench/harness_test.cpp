#include "harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

namespace dlpsim::bench {
namespace {

TEST(Harness, ConfigNamesResolve) {
  for (const std::string& name : ConfigNames()) {
    const SimConfig cfg = ConfigFor(name);
    EXPECT_EQ(cfg.num_cores, 16u) << name;
  }
  EXPECT_THROW(ConfigFor("bogus"), std::out_of_range);
}

TEST(Harness, ConfigSemantics) {
  EXPECT_EQ(ConfigFor("base").l1d.policy, PolicyKind::kBaseline);
  EXPECT_EQ(ConfigFor("sb").l1d.policy, PolicyKind::kStallBypass);
  EXPECT_EQ(ConfigFor("gp").l1d.policy, PolicyKind::kGlobalProtection);
  EXPECT_EQ(ConfigFor("dlp").l1d.policy, PolicyKind::kDlp);
  EXPECT_EQ(ConfigFor("32kb").l1d.geom.ways, 8u);
  EXPECT_EQ(ConfigFor("64kb").l1d.geom.ways, 16u);
}

TEST(Harness, ProfileResultRoundTrip) {
  ProfileResult r;
  r.global.buckets = {1, 2, 3, 4};
  r.reuse_accesses = 100;
  r.reuse_misses = 40;
  r.compulsory = 7;
  RddHistogram h;
  h.buckets = {5, 6, 7, 8};
  r.per_pc[42] = h;
  r.per_pc[7] = h;

  bool ok = false;
  const ProfileResult back = ProfileResult::FromText(r.ToText(), &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(back.ToText(), r.ToText());
  EXPECT_EQ(back.global.buckets[3], 4u);
  EXPECT_EQ(back.per_pc.size(), 2u);
  EXPECT_EQ(back.per_pc.at(42).buckets[0], 5u);
  EXPECT_DOUBLE_EQ(back.reuse_miss_rate(), 0.4);
}

TEST(Harness, ProfileFromGarbageFails) {
  bool ok = true;
  ProfileResult::FromText("nope", &ok);
  EXPECT_FALSE(ok);
}

TEST(Harness, NormalizeGuardsZero) {
  EXPECT_DOUBLE_EQ(Normalize(5.0, 2.0), 2.5);
  EXPECT_DOUBLE_EQ(Normalize(5.0, 0.0), 0.0);
}

TEST(Harness, ScaleDefaultsToOne) {
  // (Unless the environment overrides it -- accept any positive value.)
  EXPECT_GT(Scale(), 0.0);
}


TEST(Harness, GridSurvivesFailingCellAndReportsIt) {
  // DLPSIM_NOCACHE so the bogus cell never touches the on-disk cache and
  // the good cells are freshly simulated (cheap at this scale).
  ASSERT_EQ(::setenv("DLPSIM_NOCACHE", "1", 1), 0);
  const std::size_t failed_before = FailedCells();
  const auto timing_failed_before = Timing().FailedCells();

  // "nope" is not a config name: ConfigFor throws, the cell fails, and
  // the sibling cells still finish.
  const auto results = RunGrid({"HS"}, {"base", "nope"}, /*scale=*/0.01, 2);
  ::unsetenv("DLPSIM_NOCACHE");

  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].metrics.core_cycles, 0u);   // healthy sibling ran
  EXPECT_EQ(results[1].metrics.core_cycles, 0u);   // failed slot zeroed
  EXPECT_EQ(FailedCells(), failed_before + 1);
  EXPECT_EQ(ExitStatus(), 1);

  // The failure is recorded as data in the timing log.
  ASSERT_EQ(Timing().FailedCells(), timing_failed_before + 1);
  bool found = false;
  for (const exec::TimingCell& c : Timing().cells()) {
    if (c.failed && c.config == "nope") {
      found = true;
      EXPECT_NE(c.error.find("unknown config"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Harness, RunKeepsScalesApartExactly) {
  // 0.0375 and 0.03749999 print alike at 6 significant digits but build
  // different PVR workloads (6 iterations against 5): the memo must not
  // hand one scale's result to the other.
  ASSERT_EQ(::setenv("DLPSIM_NOCACHE", "1", 1), 0);
  const RunResult a = bench::Run("PVR", "base", 0.0375);
  const RunResult b = bench::Run("PVR", "base", 0.03749999);
  ::unsetenv("DLPSIM_NOCACHE");
  EXPECT_NE(a.metrics.committed_thread_insns,
            b.metrics.committed_thread_insns);
}

TEST(Harness, FaultSpecParseFailureIsATypedCellError) {
  ASSERT_EQ(::setenv("DLPSIM_FAULTS", "kinds=bogus", 1), 0);
  EXPECT_THROW(SimulateUncached("HS", "base", 0.01), std::invalid_argument);
  ::unsetenv("DLPSIM_FAULTS");
}

TEST(Harness, FaultedRunCompletesAndSkipsTheCache) {
  // A faulted run must not read or write the shared result cache; it
  // still produces finite metrics (graceful degradation end to end).
  ASSERT_EQ(::setenv("DLPSIM_FAULTS", "seed=3,count=4,horizon=40000,stall=200",
                     1), 0);
  const auto artifact_dir =
      std::filesystem::temp_directory_path() / "dlpsim_fault_artifacts";
  ASSERT_EQ(::setenv("DLPSIM_TIMING_DIR", artifact_dir.string().c_str(), 1),
            0);
  const RunResult r = SimulateUncached("HS", "base", 0.01);
  ::unsetenv("DLPSIM_FAULTS");
  ::unsetenv("DLPSIM_TIMING_DIR");
  // The applied fault plan is exported as an artifact.
  EXPECT_TRUE(
      std::filesystem::exists(artifact_dir / "HS_base_faults.json"));
  std::filesystem::remove_all(artifact_dir);
  EXPECT_GT(r.metrics.core_cycles, 0u);
  EXPECT_EQ(r.metrics.completed, 1u);
}

}  // namespace
}  // namespace dlpsim::bench
