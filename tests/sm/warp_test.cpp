#include "sm/warp.h"

#include <gtest/gtest.h>

#include "workloads/registry.h"

namespace dlpsim {
namespace {

std::unique_ptr<Program> TinyProgram(std::uint32_t iters) {
  ProgramBuilder b(iters);
  b.Alu(2).LoadStream().Alu(1);
  return b.Build();
}

TEST(Warp, EmptyProgramIsFinishedImmediately) {
  Program empty;
  Warp w(0, 0, &empty);
  EXPECT_TRUE(w.Finished());
  EXPECT_FALSE(w.Issueable(0));
}

TEST(Warp, WalksRunLengthBlocksAndIterations) {
  auto prog = TinyProgram(2);
  Warp w(0, 0, prog.get());
  // Iteration structure: alu x2, load, alu x1 -> 4 issues per iteration.
  for (int iter = 0; iter < 2; ++iter) {
    EXPECT_EQ(w.iteration(), static_cast<std::uint64_t>(iter));
    EXPECT_EQ(w.Current().op, OpClass::kAlu);
    w.AdvanceIssue(0);
    EXPECT_EQ(w.Current().op, OpClass::kAlu);  // still in the x2 block
    w.AdvanceIssue(0);
    EXPECT_EQ(w.Current().op, OpClass::kLoad);
    w.AdvanceIssue(0);
    if (!w.Finished()) {
      EXPECT_EQ(w.Current().op, OpClass::kAlu);
      w.AdvanceIssue(0);
    }
  }
  EXPECT_TRUE(w.Finished());
}

TEST(Warp, MemBlockingAndWake) {
  auto prog = TinyProgram(1);
  Warp w(0, 0, prog.get());
  w.BlockOnMem(10);
  EXPECT_FALSE(w.Issueable(10));
  EXPECT_FALSE(w.Quiescent());
  w.AddOutstanding(2);
  w.OnMemOpDispatched();
  EXPECT_FALSE(w.Issueable(10));  // transactions still pending
  w.OnTransactionDone();
  EXPECT_FALSE(w.Issueable(10));
  w.OnTransactionDone();
  EXPECT_TRUE(w.Issueable(11));
  EXPECT_TRUE(w.Quiescent());
}

TEST(Warp, NoWakeBeforeDispatchComplete) {
  // All transactions that were dispatched may complete while the op is
  // still being fed to the LD/ST unit; the warp must stay blocked.
  auto prog = TinyProgram(1);
  Warp w(0, 0, prog.get());
  w.BlockOnMem(0);
  w.AddOutstanding(1);
  w.OnTransactionDone();
  EXPECT_FALSE(w.Issueable(1));  // mem op still in flight
  w.OnMemOpDispatched();
  EXPECT_TRUE(w.Issueable(1));
}

TEST(Warp, BusyUntilElapses) {
  auto prog = TinyProgram(1);
  Warp w(0, 0, prog.get());
  w.BusyFor(100, 20);
  EXPECT_FALSE(w.Issueable(100));
  EXPECT_FALSE(w.Issueable(119));
  EXPECT_TRUE(w.Issueable(120));
}

TEST(Warp, FinishedSurvivesLateWakeups) {
  ProgramBuilder b(1);
  b.LoadStream();
  auto prog = b.Build();
  Warp w(0, 0, prog.get());
  ASSERT_EQ(w.Current().op, OpClass::kLoad);
  w.AdvanceIssue(0);
  EXPECT_TRUE(w.Finished());
  w.BlockOnMem(0);  // load data still outstanding
  w.AddOutstanding(1);
  w.OnMemOpDispatched();
  w.OnTransactionDone();
  EXPECT_TRUE(w.Finished());   // the late fill must not resurrect it
  EXPECT_FALSE(w.Issueable(5));
  EXPECT_TRUE(w.Quiescent());
}

TEST(Warp, GlobalIdPreserved) {
  auto prog = TinyProgram(1);
  Warp w(3, 1234, prog.get());
  EXPECT_EQ(w.id(), 3u);
  EXPECT_EQ(w.global_id(), 1234u);
}

}  // namespace
}  // namespace dlpsim
