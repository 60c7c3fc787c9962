#include "mem/dram.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

DramConfig SmallDram() {
  DramConfig cfg;
  cfg.banks = 2;
  cfg.row_bytes = 512;  // 4 lines per row at 128B
  cfg.t_row_hit = 10;
  cfg.t_row_miss = 30;
  cfg.t_rc = 20;
  cfg.bus_bytes_per_cycle = 16;  // 8-cycle burst for a 128B line
  return cfg;
}

std::vector<DramChannel::Completion> RunUntil(DramChannel& dram,
                                              std::size_t count,
                                              Cycle max_cycles = 10000) {
  std::vector<DramChannel::Completion> done;
  for (Cycle now = 0; now < max_cycles && done.size() < count; ++now) {
    for (const auto& c : dram.Tick(now)) done.push_back(c);
  }
  return done;
}

TEST(Dram, BankAndRowMapping) {
  DramChannel dram(SmallDram(), 128);
  // 4 lines/row, 2 banks: lines 0-3 bank 0 row 0; 4-7 bank 1 row 0;
  // 8-11 bank 0 row 1.
  EXPECT_EQ(dram.BankOf(0), 0u);
  EXPECT_EQ(dram.BankOf(3), 0u);
  EXPECT_EQ(dram.BankOf(4), 1u);
  EXPECT_EQ(dram.BankOf(8), 0u);
  EXPECT_EQ(dram.RowOf(0), 0u);
  EXPECT_EQ(dram.RowOf(8), 1u);
}

TEST(Dram, SingleReadCompletesWithRowMissLatency) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 7});
  const auto done = RunUntil(dram, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 7u);
  EXPECT_FALSE(done[0].write);
  EXPECT_EQ(dram.row_misses, 1u);
  EXPECT_EQ(dram.row_hits, 0u);
}

TEST(Dram, SequentialLinesHitTheOpenRow) {
  DramChannel dram(SmallDram(), 128);
  for (Addr b = 0; b < 4; ++b) dram.Enqueue({b, false, b});
  RunUntil(dram, 4);
  EXPECT_EQ(dram.row_misses, 1u);  // first access opens the row
  EXPECT_EQ(dram.row_hits, 3u);
}

TEST(Dram, AlternatingRowsInOneBankMiss) {
  DramChannel dram(SmallDram(), 128);
  // Lines 0 and 8 share bank 0 but different rows.
  dram.Enqueue({0, false, 0});
  dram.Enqueue({8, false, 1});
  dram.Enqueue({0, false, 2});
  RunUntil(dram, 3);
  EXPECT_EQ(dram.row_misses, 3u);
}

TEST(Dram, FirstReadySchedulingSkipsBusyBank) {
  DramChannel dram(SmallDram(), 128);
  // Two requests to bank 0 (rows 0, 1) then one to bank 1: the bank-1
  // request must not wait behind the bank-0 row miss.
  dram.Enqueue({0, false, 0});
  dram.Enqueue({8, false, 1});
  dram.Enqueue({4, false, 2});
  const auto done = RunUntil(dram, 3);
  ASSERT_EQ(done.size(), 3u);
  // The bank-1 request (tag 2) overtakes the second bank-0 one (tag 1).
  EXPECT_EQ(done[0].tag, 0u);
  EXPECT_EQ(done[1].tag, 2u);
  EXPECT_EQ(done[2].tag, 1u);
}

TEST(Dram, WritesCompleteAndAreCounted) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, true, 0});
  const auto done = RunUntil(dram, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].write);
  EXPECT_EQ(dram.writes, 1u);
  EXPECT_EQ(dram.reads, 0u);
}

TEST(Dram, QueueCapacityBounds) {
  DramChannel dram(SmallDram(), 128);
  int accepted = 0;
  while (dram.CanAccept()) {
    dram.Enqueue({static_cast<Addr>(accepted), false, 0});
    ++accepted;
  }
  EXPECT_EQ(accepted, 32);
  EXPECT_FALSE(dram.CanAccept());
  RunUntil(dram, 1);
  EXPECT_TRUE(dram.CanAccept());
}

TEST(Dram, BusSerializesBackToBackBursts) {
  DramChannel dram(SmallDram(), 128);
  // Row hits in both banks: throughput should be bus-limited, i.e. one
  // completion per 8 cycles asymptotically.
  for (int i = 0; i < 8; ++i) {
    dram.Enqueue({static_cast<Addr>(i % 4), false, 0});        // bank 0
    if (dram.CanAccept()) {
      dram.Enqueue({static_cast<Addr>(4 + (i % 4)), false, 0});  // bank 1
    }
  }
  std::size_t total = 0;
  Cycle last = 0;
  for (Cycle now = 0; now < 2000 && !dram.Idle(); ++now) {
    const auto done = dram.Tick(now);
    total += done.size();
    if (!done.empty()) last = now;
  }
  ASSERT_GE(total, 8u);
  // 16 transfers x 8-cycle bursts ~ 128 cycles + initial latency.
  EXPECT_GE(last, 8u * total / 2);
}

std::vector<Cycle> CompletionCycles(DramChannel& dram, std::size_t count,
                                    Cycle start = 0, Cycle max_cycles = 10000) {
  std::vector<Cycle> cycles;
  for (Cycle now = start; now < max_cycles && cycles.size() < count; ++now) {
    for (std::size_t i = 0; i < dram.Tick(now).size(); ++i) {
      cycles.push_back(now);
    }
  }
  return cycles;
}

TEST(Dram, RowMissLatencyIsExactlyActivationPlusBurst) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 0});
  const auto cycles = CompletionCycles(dram, 1);
  ASSERT_EQ(cycles.size(), 1u);
  // Issued at cycle 0: t_row_miss(30) + 8-cycle burst on the data bus.
  EXPECT_EQ(cycles[0], 38u);
}

TEST(Dram, RowHitLatencyIsExactlyColumnAccessPlusBurst) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 0});
  ASSERT_EQ(CompletionCycles(dram, 1).size(), 1u);  // opens row 0 of bank 0
  // Re-request the open row once bank and bus are long idle: the only
  // cost left is t_row_hit(10) + burst(8), relative to the issue cycle.
  dram.Enqueue({1, false, 1});
  const auto cycles = CompletionCycles(dram, 1, /*start=*/100);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], 118u);
  EXPECT_EQ(dram.row_hits, 1u);
}

TEST(Dram, SecondMissToBusyBankWaitsForPrechargeWindow) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 0});  // bank 0 row 0: issued at 0, bank busy 28
  dram.Enqueue({8, false, 1});  // bank 0 row 1: can only issue at 28
  const auto cycles = CompletionCycles(dram, 2);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], 38u);
  // Issue at 28 (t_rc + burst occupancy), then 30 activation, then the
  // shared bus (free at 38 < 58) adds its 8-cycle burst: 66.
  EXPECT_EQ(cycles[1], 66u);
}

TEST(Dram, SharedBusSerializesCompletionsAcrossBanks) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 0});  // bank 0
  dram.Enqueue({4, false, 1});  // bank 1: issues at cycle 1, no bank conflict
  const auto cycles = CompletionCycles(dram, 2);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], 38u);
  // Bank-1 data is ready at 1 + 30 = 31 but the bus is occupied until
  // 38, so its burst lands at 46 -- not the contention-free 39.
  EXPECT_EQ(cycles[1], 46u);
}

TEST(Dram, SameBankSameRowRequestsCompleteInQueueOrder) {
  DramChannel dram(SmallDram(), 128);
  for (std::uint64_t tag = 0; tag < 6; ++tag) {
    dram.Enqueue({static_cast<Addr>(tag % 4), false, tag});
  }
  const auto done = RunUntil(dram, 6);
  ASSERT_EQ(done.size(), 6u);
  for (std::uint64_t tag = 0; tag < 6; ++tag) {
    EXPECT_EQ(done[tag].tag, tag) << "completion " << tag;
  }
}

TEST(Dram, QueueAndInServiceDepthsTrackIssue) {
  DramChannel dram(SmallDram(), 128);
  dram.Enqueue({0, false, 0});  // bank 0
  dram.Enqueue({4, false, 1});  // bank 1: issuable while bank 0 precharges
  EXPECT_EQ(dram.queue_depth(), 2u);
  EXPECT_EQ(dram.in_service_depth(), 0u);
  dram.Tick(0);  // issues exactly one command per cycle
  EXPECT_EQ(dram.queue_depth(), 1u);
  EXPECT_EQ(dram.in_service_depth(), 1u);
  dram.Tick(1);
  EXPECT_EQ(dram.queue_depth(), 0u);
  EXPECT_EQ(dram.in_service_depth(), 2u);
  RunUntil(dram, 2, 10000);
  EXPECT_EQ(dram.in_service_depth(), 0u);
}

TEST(Dram, RequestBehindBusyBanksIssuesTheCycleItsBankFrees) {
  DramConfig cfg = SmallDram();
  cfg.banks = 4;  // lines 0-3 bank 0, 4-7 bank 1, 8-11 bank 2; 16 bank 0
  DramChannel dram(cfg, 128);
  dram.Enqueue({0, false, 0});  // bank 0 row miss: issued at 0, busy to 28
  dram.Enqueue({4, false, 1});  // bank 1 row miss: issued at 1, busy to 29
  dram.Tick(0);
  dram.Tick(1);
  dram.Enqueue({16, false, 2});  // bank 0, row 1: waits for cycle 28
  dram.Enqueue({20, false, 3});  // bank 1, row 1: waits for cycle 29
  for (Cycle now = 2; now < 10; ++now) dram.Tick(now);
  EXPECT_EQ(dram.queue_depth(), 2u);

  // Queued behind two busy-bank requests, a free-bank request issues on
  // the very cycle it arrives.
  dram.Enqueue({8, false, 4});
  dram.Tick(10);
  EXPECT_EQ(dram.queue_depth(), 2u);
  EXPECT_EQ(dram.in_service_depth(), 3u);

  for (Cycle now = 11; now < 28; ++now) dram.Tick(now);
  EXPECT_EQ(dram.queue_depth(), 2u);
  dram.Tick(28);  // bank 0 frees
  EXPECT_EQ(dram.queue_depth(), 1u);
  dram.Tick(29);  // bank 1 frees
  EXPECT_EQ(dram.queue_depth(), 0u);
  EXPECT_EQ(dram.row_misses, 5u);
}

TEST(Dram, IdleReflectsState) {
  DramChannel dram(SmallDram(), 128);
  EXPECT_TRUE(dram.Idle());
  dram.Enqueue({0, false, 0});
  EXPECT_FALSE(dram.Idle());
  RunUntil(dram, 1);
  EXPECT_TRUE(dram.Idle());
}

}  // namespace
}  // namespace dlpsim
