// TryRunJobs tests: a failing cell runs once and surfaces as a
// structured failure while every sibling runs to completion.
#include "exec/run_grid.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace dlpsim::exec {
namespace {

std::vector<Job> TestGrid() {
  return Grid({"A", "B", "C"}, {"x", "y"});
}

TEST(TryRunJobs, AllCellsSucceed) {
  const auto run = TryRunJobs(
      TestGrid(), [](const Job& j) { return j.app + j.config; }, 2);
  EXPECT_TRUE(run.ok());
  ASSERT_EQ(run.results.size(), 6u);
  EXPECT_EQ(run.results[0], "Ax");
  EXPECT_EQ(run.results[5], "Cy");
}

TEST(TryRunJobs, PersistentFailureIsRecordedAndSiblingsFinish) {
  std::atomic<int> runs_of_bad{0};
  const auto run = TryRunJobs(
      TestGrid(),
      [&](const Job& j) -> int {
        if (j.app == "B" && j.config == "y") {
          ++runs_of_bad;
          throw std::runtime_error("cell exploded");
        }
        return 7;
      },
      3);

  EXPECT_FALSE(run.ok());
  ASSERT_EQ(run.failures.size(), 1u);
  const JobFailure& f = run.failures[0];
  EXPECT_EQ(f.job.app, "B");
  EXPECT_EQ(f.job.config, "y");
  EXPECT_EQ(f.index, 3u);  // app-major: B is row 1, y is column 1
  EXPECT_EQ(f.error, "cell exploded");
  EXPECT_EQ(runs_of_bad.load(), 1);  // deterministic: never retried

  // Siblings all ran; the failed slot is value-initialized.
  ASSERT_EQ(run.results.size(), 6u);
  EXPECT_EQ(run.results[3], 0);
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(run.results[i], 7) << i;
  }
}

TEST(TryRunJobs, NonExceptionThrowIsCaptured) {
  const auto run = TryRunJobs(
      std::vector<Job>{{"A", "x"}},
      [](const Job&) -> int { throw 17; },  // not a std::exception
      1);
  ASSERT_EQ(run.failures.size(), 1u);
  EXPECT_EQ(run.failures[0].error, "unknown exception");
}

}  // namespace
}  // namespace dlpsim::exec
