#include "sm/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    ProgramBuilder b(100);
    b.Alu(10);
    prog_ = b.Build();
    for (std::uint32_t i = 0; i < 6; ++i) {
      warps_.emplace_back(i, i, prog_.get());
    }
  }

  std::unique_ptr<Program> prog_;
  std::vector<Warp> warps_;
};

TEST_F(SchedulerTest, GtoPicksOldestInitially) {
  WarpScheduler sched(0, 1, 6);
  EXPECT_EQ(sched.Pick(warps_, 0), 0u);
}

TEST_F(SchedulerTest, GtoStaysGreedyOnLastIssued) {
  WarpScheduler sched(0, 1, 6);
  sched.OnIssued(3);
  EXPECT_EQ(sched.Pick(warps_, 0), 3u);  // greedy on warp 3
  // When warp 3 blocks, fall back to the oldest ready warp.
  warps_[3].BlockOnMem(0);
  EXPECT_EQ(sched.Pick(warps_, 0), 0u);
}

TEST_F(SchedulerTest, GtoHonorsOwnershipPartition) {
  // Two schedulers: even warps belong to 0, odd to 1.
  WarpScheduler s0(0, 2, 6);
  WarpScheduler s1(1, 2, 6);
  EXPECT_EQ(s0.Pick(warps_, 0), 0u);
  EXPECT_EQ(s1.Pick(warps_, 0), 1u);
  warps_[0].BlockOnMem(0);
  warps_[1].BlockOnMem(0);
  EXPECT_EQ(s0.Pick(warps_, 0), 2u);
  EXPECT_EQ(s1.Pick(warps_, 0), 3u);
}

TEST_F(SchedulerTest, GtoReturnsInvalidWhenNothingReady) {
  WarpScheduler sched(0, 1, 6);
  for (Warp& w : warps_) w.BlockOnMem(0);
  EXPECT_EQ(sched.Pick(warps_, 0), kInvalidIndex);
}

TEST_F(SchedulerTest, GtoGreedyEndsWhenWarpFinishes) {
  WarpScheduler sched(0, 1, 2);
  ProgramBuilder b(1);
  b.Alu(1);
  auto tiny = b.Build();
  std::vector<Warp> warps;
  warps.emplace_back(0, 0, tiny.get());
  warps.emplace_back(1, 1, tiny.get());
  EXPECT_EQ(sched.Pick(warps, 0), 0u);
  warps[0].AdvanceIssue(0);
  sched.OnIssued(0);
  ASSERT_TRUE(warps[0].Finished());
  EXPECT_EQ(sched.Pick(warps, 1), 1u);
}

// GTO's ready set against a naive "greedy, else lowest owned issueable"
// scan. Warps run programs of different lengths and block, sleep and wake
// at random, so they retire out of order; blocks and wakes reach the
// scheduler through the notifications SmCore sends. 65 and 130 warps
// spread one scheduler's set over several words.
TEST(GtoScheduler, MatchesNaiveScanWhileWarpsRetireOutOfOrder) {
  std::vector<std::unique_ptr<Program>> programs;
  for (const std::uint32_t iters : {1u, 2u, 5u, 9u}) {
    ProgramBuilder b(iters);
    b.Alu(2).Alu(1);
    programs.push_back(b.Build());
  }
  for (const std::uint32_t num_warps : {1u, 5u, 48u, 64u, 65u, 130u}) {
    for (std::uint32_t num_scheds = 1; num_scheds <= 3; ++num_scheds) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << num_warps << " warps, " << num_scheds
                     << " schedulers, seed " << seed);
        Rng rng(seed * 1000 + num_warps * 10 + num_scheds);
        std::vector<Warp> warps;
        for (std::uint32_t w = 0; w < num_warps; ++w) {
          warps.emplace_back(w, w, programs[rng.Below(programs.size())].get());
        }
        std::vector<WarpScheduler> scheds;
        std::vector<std::uint32_t> last(num_scheds, kInvalidIndex);
        for (std::uint32_t s = 0; s < num_scheds; ++s) {
          scheds.emplace_back(s, num_scheds, num_warps);
        }
        const auto naive_pick = [&](std::uint32_t s, Cycle now) {
          if (last[s] != kInvalidIndex && warps[last[s]].Issueable(now)) {
            return last[s];
          }
          for (std::uint32_t w = 0; w < num_warps; ++w) {
            if (w % num_scheds == s && warps[w].Issueable(now)) return w;
          }
          return kInvalidIndex;
        };
        // SmCore's wake rule: a warp stops waiting once it is quiescent.
        const auto wake_if_quiescent = [&](std::uint32_t w) {
          if (warps[w].Quiescent()) scheds[w % num_scheds].OnWoken(w);
        };

        std::vector<std::uint32_t> retire_order;
        Cycle now = 0;
        for (; retire_order.size() < num_warps && now < 100000; ++now) {
          for (std::uint32_t s = 0; s < num_scheds; ++s) {
            const std::uint32_t w = scheds[s].Pick(warps, now);
            ASSERT_EQ(w, naive_pick(s, now)) << "cycle " << now;
            if (w == kInvalidIndex || rng.Below(8) == 0) continue;
            Warp& warp = warps[w];
            warp.AdvanceIssue(now);
            scheds[s].OnIssued(w);
            last[s] = w;
            if (warp.Finished()) retire_order.push_back(w);
            switch (rng.Below(6)) {
              case 0:  // a load with 0-3 transactions left in flight
                warp.BlockOnMem(now);
                scheds[s].OnBlocked(w);
                warp.AddOutstanding(static_cast<std::uint32_t>(rng.Below(4)));
                warp.OnMemOpDispatched();
                wake_if_quiescent(w);
                break;
              case 1:
                warp.BusyFor(now, 1 + rng.Below(20));
                break;
              default:
                break;
            }
          }
          for (std::uint32_t w = 0; w < num_warps; ++w) {
            if (warps[w].outstanding() > 0 && rng.Below(4) == 0) {
              warps[w].OnTransactionDone();
              wake_if_quiescent(w);
            }
          }
        }
        ASSERT_EQ(retire_order.size(), num_warps) << "run did not finish";
        if (num_warps >= 5) {
          EXPECT_FALSE(std::is_sorted(retire_order.begin(),
                                      retire_order.end()))
              << "warps retired in id order; the test lost its power";
        }
      }
    }
  }
}

}  // namespace
}  // namespace dlpsim
