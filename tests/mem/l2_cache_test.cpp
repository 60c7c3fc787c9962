#include "mem/l2_cache.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

L2Config SmallL2() {
  L2Config cfg;
  cfg.geom.sets = 2;
  cfg.geom.ways = 2;
  cfg.geom.index = IndexFunction::kLinear;
  cfg.mshr_entries = 4;
  cfg.mshr_max_merged = 2;
  return cfg;
}

IcntPacket Waiter(std::uint32_t src) {
  IcntPacket p;
  p.kind = IcntPacket::Kind::kReadRequest;
  p.src = src;
  return p;
}

// The waiters a fill of `block` releases.
std::vector<IcntPacket> Fill(L2Cache& l2, Addr block) {
  std::vector<IcntPacket> waiters;
  l2.Fill(block, waiters);
  return waiters;
}

std::vector<Addr> Writebacks(L2Cache& l2) {
  std::vector<Addr> out;
  l2.TakeWritebacks(out);
  return out;
}

TEST(L2Cache, MissFillHit) {
  L2Cache l2(SmallL2());
  EXPECT_EQ(l2.AccessRead(0, Waiter(1)), L2Cache::Result::kMissIssued);
  const auto waiters = Fill(l2, 0);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].src, 1u);
  EXPECT_EQ(l2.AccessRead(0, Waiter(2)), L2Cache::Result::kHit);
  EXPECT_EQ(l2.stats().load_hits, 1u);
}

TEST(L2Cache, ConcurrentMissesMerge) {
  L2Cache l2(SmallL2());
  EXPECT_EQ(l2.AccessRead(5, Waiter(1)), L2Cache::Result::kMissIssued);
  EXPECT_EQ(l2.AccessRead(5, Waiter(2)), L2Cache::Result::kMissMerged);
  // Merge limit 2 -> the third requester stalls.
  EXPECT_EQ(l2.AccessRead(5, Waiter(3)), L2Cache::Result::kStall);
  const auto waiters = Fill(l2, 5);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0].src, 1u);
  EXPECT_EQ(waiters[1].src, 2u);
}

TEST(L2Cache, MshrCapacityStalls) {
  L2Cache l2(SmallL2());
  for (Addr b = 0; b < 4; ++b) {
    EXPECT_EQ(l2.AccessRead(b, Waiter(0)), L2Cache::Result::kMissIssued);
  }
  EXPECT_EQ(l2.AccessRead(99, Waiter(0)), L2Cache::Result::kStall);
  Fill(l2, 0);
  EXPECT_EQ(l2.AccessRead(99, Waiter(0)), L2Cache::Result::kMissIssued);
}

TEST(L2Cache, AllocateOnFillNeverReservesSets) {
  // Unlike the L1D, in-flight fetches must not occupy ways: start many
  // fetches to one set and confirm reads to other blocks of that set
  // still hit after their fills.
  L2Cache l2(SmallL2());
  // Set 0 holds even blocks (2 sets, linear). Fetch 4 distinct blocks.
  EXPECT_EQ(l2.AccessRead(0, Waiter(0)), L2Cache::Result::kMissIssued);
  EXPECT_EQ(l2.AccessRead(2, Waiter(0)), L2Cache::Result::kMissIssued);
  EXPECT_EQ(l2.AccessRead(4, Waiter(0)), L2Cache::Result::kMissIssued);
  EXPECT_EQ(l2.AccessRead(6, Waiter(0)), L2Cache::Result::kMissIssued);
  Fill(l2, 0);
  Fill(l2, 2);
  EXPECT_EQ(l2.AccessRead(0, Waiter(0)), L2Cache::Result::kHit);
  EXPECT_EQ(l2.AccessRead(2, Waiter(0)), L2Cache::Result::kHit);
}

TEST(L2Cache, FillEvictsLruAndWritesBackDirty) {
  L2Cache l2(SmallL2());
  // Fill blocks 0 and 2 into set 0 and dirty block 0.
  l2.AccessRead(0, Waiter(0));
  Fill(l2, 0);
  l2.AccessRead(2, Waiter(0));
  Fill(l2, 2);
  EXPECT_EQ(l2.AccessWrite(0), L2Cache::Result::kHit);
  EXPECT_TRUE(Writebacks(l2).empty());

  // A third block displaces LRU (block 0... it was written last, so LRU
  // is block 2). Touch order: 0 filled, 2 filled, 0 written -> LRU = 2.
  l2.AccessRead(4, Waiter(0));
  Fill(l2, 4);
  EXPECT_EQ(l2.stats().evictions, 1u);
  EXPECT_TRUE(Writebacks(l2).empty());  // block 2 was clean

  // Displace again: now the dirty block 0 goes.
  l2.AccessRead(6, Waiter(0));
  Fill(l2, 6);
  const auto wbs = Writebacks(l2);
  ASSERT_EQ(wbs.size(), 1u);
  EXPECT_EQ(wbs[0], 0u);
}

TEST(L2Cache, WriteMissForwardsToDram) {
  L2Cache l2(SmallL2());
  EXPECT_EQ(l2.AccessWrite(10), L2Cache::Result::kMissIssued);
  EXPECT_EQ(l2.stats().stores, 1u);
  EXPECT_EQ(l2.stats().store_hits, 0u);
}

TEST(L2Cache, StallHasNoSideEffects) {
  L2Cache l2(SmallL2());
  l2.AccessRead(5, Waiter(1));
  l2.AccessRead(5, Waiter(2));
  const std::uint64_t accesses = l2.stats().accesses;
  EXPECT_EQ(l2.AccessRead(5, Waiter(3)), L2Cache::Result::kStall);
  EXPECT_EQ(l2.stats().accesses, accesses);
  EXPECT_EQ(l2.pending_fetches(), 1u);
}

}  // namespace
}  // namespace dlpsim
