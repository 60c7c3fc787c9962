#include "sm/ldst_unit.h"

#include <gtest/gtest.h>

#include "workloads/registry.h"

namespace dlpsim {
namespace {

class LdStUnitTest : public ::testing::Test {
 protected:
  LdStUnitTest() {
    cfg_.l1d.geom.sets = 2;
    cfg_.l1d.geom.ways = 2;
    cfg_.l1d.geom.index = IndexFunction::kLinear;
    cfg_.l1d.mshr_entries = 4;
    cfg_.l1d.miss_queue_entries = 8;
    cache_ = std::make_unique<L1DCache>(cfg_.l1d);
    unit_ = std::make_unique<LdStUnit>(cfg_.core, cache_.get());

    ProgramBuilder b(10);
    b.LoadStream().Alu(1);
    prog_ = b.Build();
    for (std::uint32_t i = 0; i < 4; ++i) warps_.emplace_back(i, i, prog_.get());
  }

  void Enqueue(std::uint32_t warp, std::vector<Addr> lines,
               AccessType type = AccessType::kLoad) {
    WarpMemOp& op = unit_->NextSlot();
    op.warp_index = warp;
    op.pc = 0;
    op.type = type;
    op.lines = std::move(lines);
    unit_->Commit();
  }

  void FillAll() {
    std::vector<MshrToken> woken;
    while (cache_->HasOutgoing()) {
      const L1DOutgoing out = cache_->PopOutgoing();
      if (!out.write) {
        cache_->Fill(L1DResponse{out.block, out.no_fill, out.token}, 0,
                     woken);
      }
    }
    for (MshrToken t : woken) warps_[t].OnTransactionDone();
  }

  SimConfig cfg_;
  std::unique_ptr<L1DCache> cache_;
  std::unique_ptr<LdStUnit> unit_;
  std::unique_ptr<Program> prog_;
  std::vector<Warp> warps_;
  std::vector<std::uint32_t> woken_;
};

TEST_F(LdStUnitTest, DispatchesOneTransactionPerCycle) {
  warps_[0].BlockOnMem(0);
  Enqueue(0, {0, 128});
  unit_->Tick(0, warps_, woken_);
  EXPECT_EQ(cache_->stats().accesses, 1u);
  EXPECT_FALSE(unit_->Idle());  // second line still pending
  unit_->Tick(1, warps_, woken_);
  EXPECT_EQ(cache_->stats().accesses, 2u);
  EXPECT_TRUE(unit_->Idle());
  EXPECT_EQ(warps_[0].outstanding(), 2u);
}

TEST_F(LdStUnitTest, WarpWakesAfterAllTransactionsReturn) {
  warps_[0].BlockOnMem(0);
  Enqueue(0, {0, 128});
  unit_->Tick(0, warps_, woken_);
  unit_->Tick(1, warps_, woken_);
  EXPECT_FALSE(warps_[0].Issueable(2));
  FillAll();
  EXPECT_TRUE(warps_[0].Issueable(2));
}

TEST_F(LdStUnitTest, HeadOfLineBlockingOnReservationFail) {
  // Fill set 0 with reserved lines: blocks 0 and 2 (2 sets, linear).
  warps_[0].BlockOnMem(0);
  Enqueue(0, {0 * 128, 2 * 128, 4 * 128});
  unit_->Tick(0, warps_, woken_);
  unit_->Tick(1, warps_, woken_);
  // Third transaction targets the fully reserved set 0 -> stall.
  unit_->Tick(2, warps_, woken_);
  EXPECT_EQ(unit_->stall_cycles, 1u);
  // An op from another warp behind the head cannot proceed either.
  warps_[1].BlockOnMem(3);
  Enqueue(1, {1 * 128});
  unit_->Tick(3, warps_, woken_);
  EXPECT_EQ(unit_->stall_cycles, 2u);
  EXPECT_EQ(unit_->queue_depth(), 2u);

  // Resolving the fills unblocks the pipeline.
  FillAll();
  unit_->Tick(4, warps_, woken_);  // head's third transaction now reserves
  unit_->Tick(5, warps_, woken_);  // second op dispatches
  EXPECT_TRUE(unit_->Idle());
}

TEST_F(LdStUnitTest, StoresAreFireAndForget) {
  Enqueue(0, {0}, AccessType::kStore);
  unit_->Tick(0, warps_, woken_);
  EXPECT_TRUE(unit_->Idle());
  EXPECT_TRUE(warps_[0].Issueable(1));  // never blocked
  EXPECT_EQ(warps_[0].outstanding(), 0u);
}

TEST_F(LdStUnitTest, AllHitLoadWakesWithoutOutstanding) {
  warps_[0].BlockOnMem(0);
  Enqueue(0, {0});
  unit_->Tick(0, warps_, woken_);
  FillAll();
  EXPECT_TRUE(warps_[0].Issueable(1));
  // Second access to the same line hits; the warp wakes on dispatch.
  warps_[1].BlockOnMem(1);
  Enqueue(1, {0});
  unit_->Tick(1, warps_, woken_);
  EXPECT_EQ(warps_[1].outstanding(), 0u);
  EXPECT_TRUE(warps_[1].Issueable(2));
}

TEST_F(LdStUnitTest, SlotRingKeepsFifoOrderAcrossTheWrap) {
  // Fill every slot, retire three ops, then refill past the end of the
  // ring: ops must still reach the L1D in commit order.
  const std::uint32_t n = cfg_.core.ldst_queue_entries;
  Addr block = 0;
  std::vector<Addr> sent;
  Cycle now = 0;
  const auto tick = [&] {
    unit_->Tick(now++, warps_, woken_);
    while (cache_->HasOutgoing()) sent.push_back(cache_->PopOutgoing().block);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    Enqueue(0, {block++ * 128}, AccessType::kStore);
  }
  for (int i = 0; i < 3; ++i) tick();
  for (int i = 0; i < 3; ++i) {
    Enqueue(0, {block * 128, (block + 1) * 128}, AccessType::kStore);
    block += 2;
  }
  EXPECT_FALSE(unit_->CanAccept());
  while (!unit_->Idle()) tick();
  std::vector<Addr> expected(block);
  for (Addr b = 0; b < block; ++b) expected[b] = b;
  EXPECT_EQ(sent, expected);
}

TEST_F(LdStUnitTest, CapacityBound) {
  for (std::uint32_t i = 0; i < cfg_.core.ldst_queue_entries; ++i) {
    ASSERT_TRUE(unit_->CanAccept());
    Enqueue(0, {static_cast<Addr>(i) * 128});
  }
  EXPECT_FALSE(unit_->CanAccept());
}

}  // namespace
}  // namespace dlpsim
