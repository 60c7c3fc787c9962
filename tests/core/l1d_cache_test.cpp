#include "core/l1d_cache.h"

#include <gtest/gtest.h>

#include "verify/oracle.h"

namespace dlpsim {
namespace {

L1DConfig SmallConfig(PolicyKind kind = PolicyKind::kBaseline) {
  L1DConfig cfg;
  cfg.geom.sets = 2;
  cfg.geom.ways = 2;
  cfg.geom.index = IndexFunction::kLinear;
  cfg.mshr_entries = 4;
  cfg.mshr_max_merged = 2;
  cfg.miss_queue_entries = 4;
  cfg.policy = kind;
  return cfg;
}

MemAccess Load(Addr addr, Pc pc = 0, MshrToken token = 1) {
  return MemAccess{addr, AccessType::kLoad, pc, token};
}

MemAccess Store(Addr addr, Pc pc = 0) {
  return MemAccess{addr, AccessType::kStore, pc, 0};
}

/// Drives the fill for every outstanding outgoing request.
void DrainAndFill(L1DCache& cache, std::vector<MshrToken>& woken) {
  while (cache.HasOutgoing()) {
    const L1DOutgoing out = cache.PopOutgoing();
    if (!out.write) {
      cache.Fill(L1DResponse{out.block, out.no_fill, out.token}, 0, woken);
    }
  }
}

TEST(L1DCache, ColdMissThenHit) {
  L1DCache cache(SmallConfig());
  EXPECT_EQ(cache.Access(Load(0), 0), AccessResult::kMissIssued);
  EXPECT_TRUE(cache.HasOutgoing());
  EXPECT_EQ(cache.PeekOutgoing().block, 0u);
  EXPECT_FALSE(cache.PeekOutgoing().no_fill);

  std::vector<MshrToken> woken;
  DrainAndFill(cache, woken);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 1u);

  EXPECT_EQ(cache.Access(Load(0), 1), AccessResult::kHit);
  EXPECT_EQ(cache.stats().load_hits, 1u);
  EXPECT_EQ(cache.stats().load_misses, 1u);
  EXPECT_EQ(cache.stats().fills, 1u);
}

TEST(L1DCache, SameLineDifferentOffsetHits) {
  L1DCache cache(SmallConfig());
  std::vector<MshrToken> woken;
  cache.Access(Load(0), 0);
  DrainAndFill(cache, woken);
  EXPECT_EQ(cache.Access(Load(127), 1), AccessResult::kHit);
}

TEST(L1DCache, MissToReservedLineMerges) {
  L1DCache cache(SmallConfig());
  EXPECT_EQ(cache.Access(Load(0, 0, 1), 0), AccessResult::kMissIssued);
  EXPECT_EQ(cache.Access(Load(0, 0, 2), 1), AccessResult::kMissMerged);
  EXPECT_EQ(cache.stats().mshr_merges, 1u);
  // Merge limit (2) reached; third requester stalls under the baseline.
  EXPECT_EQ(cache.Access(Load(0, 0, 3), 2), AccessResult::kReservationFail);
  EXPECT_EQ(cache.stats().reservation_fails, 1u);

  std::vector<MshrToken> woken;
  DrainAndFill(cache, woken);
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[0], 1u);
  EXPECT_EQ(woken[1], 2u);
}

TEST(L1DCache, OnlyOneRequestPerMergedMiss) {
  L1DCache cache(SmallConfig());
  cache.Access(Load(0, 0, 1), 0);
  cache.Access(Load(0, 0, 2), 1);
  // One outgoing read for both requesters.
  int reads = 0;
  while (cache.HasOutgoing()) {
    if (!cache.PopOutgoing().write) ++reads;
  }
  EXPECT_EQ(reads, 1);
}

TEST(L1DCache, StallWhenSetFullyReserved) {
  L1DCache cache(SmallConfig());
  // Set 0 holds blocks 0, 2 (linear mapping, 2 sets): both reserved.
  EXPECT_EQ(cache.Access(Load(0 * 128), 0), AccessResult::kMissIssued);
  EXPECT_EQ(cache.Access(Load(2 * 128), 0), AccessResult::kMissIssued);
  EXPECT_EQ(cache.Access(Load(4 * 128), 0), AccessResult::kReservationFail);
  // The other set is unaffected.
  EXPECT_EQ(cache.Access(Load(1 * 128), 0), AccessResult::kMissIssued);
}

TEST(L1DCache, StallLeavesNoSideEffects) {
  L1DCache cache(SmallConfig());
  cache.Access(Load(0 * 128), 0);
  cache.Access(Load(2 * 128), 0);
  const std::uint64_t accesses = cache.stats().accesses;
  const std::uint64_t loads = cache.stats().loads;
  EXPECT_EQ(cache.Access(Load(4 * 128), 0), AccessResult::kReservationFail);
  EXPECT_EQ(cache.stats().accesses, accesses);  // not counted as an access
  EXPECT_EQ(cache.stats().loads, loads);
  EXPECT_EQ(cache.mshr().size(), 2u);
}

TEST(L1DCache, StallBypassTurnsStallIntoBypass) {
  L1DCache cache(SmallConfig(PolicyKind::kStallBypass));
  cache.Access(Load(0 * 128), 0);
  cache.Access(Load(2 * 128), 0);
  EXPECT_EQ(cache.Access(Load(4 * 128, 0, 9), 0), AccessResult::kBypassed);
  EXPECT_EQ(cache.stats().bypasses, 1u);

  // The bypassed request carries its own token and no_fill flag.
  bool found = false;
  std::vector<MshrToken> woken;
  while (cache.HasOutgoing()) {
    const L1DOutgoing out = cache.PopOutgoing();
    if (out.no_fill && !out.write) {
      EXPECT_EQ(out.token, 9u);
      cache.Fill(L1DResponse{out.block, true, out.token}, 0, woken);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 9u);
  // A bypass must not fill the TDA.
  EXPECT_EQ(cache.stats().fills, 0u);
}

TEST(L1DCache, EvictionOnConflict) {
  L1DCache cache(SmallConfig());
  std::vector<MshrToken> woken;
  // Fill both ways of set 0 (blocks 0 and 2).
  cache.Access(Load(0 * 128), 0);
  cache.Access(Load(2 * 128), 0);
  DrainAndFill(cache, woken);
  // Third block in the same set evicts the LRU (block 0).
  EXPECT_EQ(cache.Access(Load(4 * 128), 1), AccessResult::kMissIssued);
  EXPECT_EQ(cache.stats().evictions, 1u);
  DrainAndFill(cache, woken);
  // Block 0 is gone; block 2 survived.
  EXPECT_EQ(cache.Access(Load(2 * 128), 2), AccessResult::kHit);
}

TEST(L1DCache, WriteBackOnHitDirtiesLine) {
  auto cfg = SmallConfig();
  cfg.write_policy = WritePolicy::kWriteBackOnHit;
  L1DCache cache(cfg);
  std::vector<MshrToken> woken;
  cache.Access(Load(0), 0);
  DrainAndFill(cache, woken);

  EXPECT_EQ(cache.Access(Store(0), 1), AccessResult::kStoreSent);
  EXPECT_EQ(cache.stats().store_hits, 1u);
  EXPECT_FALSE(cache.HasOutgoing());  // absorbed, no write-through

  // Evicting the dirty line generates a writeback.
  cache.Access(Load(2 * 128), 2);
  DrainAndFill(cache, woken);
  cache.Access(Load(4 * 128), 3);
  EXPECT_EQ(cache.stats().writebacks, 1u);
  bool saw_writeback = false;
  while (cache.HasOutgoing()) {
    const auto out = cache.PopOutgoing();
    if (out.write && out.block == 0) saw_writeback = true;
  }
  EXPECT_TRUE(saw_writeback);
}

TEST(L1DCache, WriteEvictInvalidatesOnStoreHit) {
  auto cfg = SmallConfig();
  cfg.write_policy = WritePolicy::kWriteEvict;
  L1DCache cache(cfg);
  std::vector<MshrToken> woken;
  cache.Access(Load(0), 0);
  DrainAndFill(cache, woken);

  EXPECT_EQ(cache.Access(Store(0), 1), AccessResult::kStoreSent);
  EXPECT_EQ(cache.stats().store_invalidates, 1u);
  EXPECT_TRUE(cache.HasOutgoing());  // write-through
  cache.PopOutgoing();
  // Line is gone.
  EXPECT_EQ(cache.Access(Load(0), 2), AccessResult::kMissIssued);
}

TEST(L1DCache, StoreMissWritesThroughWithoutAllocating) {
  L1DCache cache(SmallConfig());
  EXPECT_EQ(cache.Access(Store(0), 0), AccessResult::kStoreSent);
  EXPECT_EQ(cache.stats().stores, 1u);
  ASSERT_TRUE(cache.HasOutgoing());
  const auto out = cache.PopOutgoing();
  EXPECT_TRUE(out.write);
  EXPECT_EQ(cache.Access(Load(0), 1), AccessResult::kMissIssued);  // no alloc
}

TEST(L1DCache, MissQueueFullStalls) {
  auto cfg = SmallConfig();
  cfg.miss_queue_entries = 1;
  L1DCache cache(cfg);
  EXPECT_EQ(cache.Access(Load(0 * 128), 0), AccessResult::kMissIssued);
  // Queue holds the un-drained request; next miss cannot enqueue.
  EXPECT_EQ(cache.Access(Load(1 * 128), 0), AccessResult::kReservationFail);
  cache.PopOutgoing();
  EXPECT_EQ(cache.Access(Load(1 * 128), 1), AccessResult::kMissIssued);
}

TEST(L1DCache, MshrFullStalls) {
  auto cfg = SmallConfig();
  cfg.mshr_entries = 1;
  cfg.geom.sets = 2;
  L1DCache cache(cfg);
  EXPECT_EQ(cache.Access(Load(0 * 128), 0), AccessResult::kMissIssued);
  // Different set, MSHR exhausted.
  EXPECT_EQ(cache.Access(Load(1 * 128), 0), AccessResult::kReservationFail);
}

TEST(L1DCache, DlpBypassesWhenSetFullyProtected) {
  L1DCache cache(SmallConfig(PolicyKind::kDlp));
  std::vector<MshrToken> woken;
  cache.Access(Load(0 * 128, 0x10), 0);
  cache.Access(Load(2 * 128, 0x20), 0);
  DrainAndFill(cache, woken);

  // Manufacture full protection: force PLs through the tag array
  // directly (unit-level shortcut).
  TagArray& tda = cache.mutable_tda();
  for (std::uint32_t way : {0u, 1u}) tda.At(0, way).protected_life = 5;

  EXPECT_EQ(cache.Access(Load(4 * 128, 0x30, 7), 1), AccessResult::kBypassed);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  // The bypassed query consumed one PL from each line.
  EXPECT_EQ(tda.At(0, 0).protected_life, 4u);
  EXPECT_EQ(tda.At(0, 1).protected_life, 4u);
}

TEST(L1DCache, ResetClearsEverything) {
  L1DCache cache(SmallConfig());
  cache.Access(Load(0), 0);
  cache.Reset();
  EXPECT_FALSE(cache.HasOutgoing());
  EXPECT_EQ(cache.mshr().size(), 0u);
  EXPECT_EQ(cache.Access(Load(0), 1), AccessResult::kMissIssued);
}

TEST(L1DCache, AccessResultNames) {
  EXPECT_STREQ(ToString(AccessResult::kHit), "hit");
  EXPECT_STREQ(ToString(AccessResult::kReservationFail), "reservation_fail");
}

// The same history on the memoized cache and on the un-memoized oracle.
struct Twin {
  explicit Twin(const L1DConfig& cfg) : cache(cfg), oracle(cfg) {}

  AccessResult Access(const MemAccess& access, Cycle now) {
    const AccessResult result = cache.Access(access, now);
    EXPECT_EQ(result, oracle.Access(access, now)) << "addr " << access.addr;
    return result;
  }
  void PopOutgoing() {
    cache.PopOutgoing();
    oracle.PopOutgoing();
  }
  void Fill(Addr block) {
    std::vector<MshrToken> woken;
    cache.Fill(L1DResponse{block, false, 0}, 0, woken);
    oracle.Fill(block, false, 0, woken);
  }
  /// Fails `probe` by probing, then repeats it, which fails from the memo.
  void FailTwice(const MemAccess& probe, Cycle now) {
    ASSERT_EQ(Access(probe, now), AccessResult::kReservationFail);
    ASSERT_TRUE(cache.RepeatsLastFailure(probe.addr / 128, probe.type));
    ASSERT_EQ(Access(probe, now + 1), AccessResult::kReservationFail);
  }
  /// After a state change the retry must probe again and agree with the
  /// oracle.
  void ExpectFullRetry(const MemAccess& probe, Cycle now,
                       AccessResult want) {
    EXPECT_FALSE(cache.RepeatsLastFailure(probe.addr / 128, probe.type));
    EXPECT_EQ(Access(probe, now), want);
  }

  L1DCache cache;
  verify::OracleL1D oracle;
};

// Fails set 0 (blocks 0 and 2 reserved) for a load of block 4.
void ReserveSetZero(Twin& t) {
  ASSERT_EQ(t.Access(Load(0 * 128), 0), AccessResult::kMissIssued);
  ASSERT_EQ(t.Access(Load(2 * 128), 0), AccessResult::kMissIssued);
}

// A failed access is retried after each kind of L1D state change. The
// retry must take the full path, not the failed-access memo, and return
// what the same history returns on the oracle. Events that free the
// blocking resource must turn the failure into a success.
TEST(L1DCache, RetryAfterEachStateChangeTakesTheFullPath) {
  const MemAccess probe = Load(4 * 128, 0x40, 9);
  {
    SCOPED_TRACE("Fill");
    Twin t(SmallConfig());
    ReserveSetZero(t);
    t.FailTwice(probe, 1);
    t.Fill(0);  // block 0 becomes a clean victim
    t.ExpectFullRetry(probe, 3, AccessResult::kMissIssued);
  }
  {
    SCOPED_TRACE("PopOutgoing");
    Twin t(SmallConfig());
    for (Addr b = 1; b <= 4; ++b) {
      ASSERT_EQ(t.Access(Store(b * 128), 0), AccessResult::kStoreSent);
    }
    const MemAccess store = Store(9 * 128);
    t.FailTwice(store, 1);  // the miss queue is full
    t.PopOutgoing();
    t.ExpectFullRetry(store, 3, AccessResult::kStoreSent);
  }
  {
    SCOPED_TRACE("completed access to the same set by another requester");
    Twin t(SmallConfig());
    ReserveSetZero(t);
    t.PopOutgoing();
    t.PopOutgoing();
    t.Fill(0);
    t.Fill(2);
    ASSERT_EQ(t.Access(Store(0 * 128), 1), AccessResult::kStoreSent);
    ASSERT_EQ(t.Access(Load(2 * 128, 0, 2), 1), AccessResult::kHit);
    // Block 0 is dirty and least recent; with one free miss-queue slot it
    // cannot be evicted (its writeback needs a second slot).
    for (Addr b : {1u, 3u, 5u}) {
      ASSERT_EQ(t.Access(Store(b * 128), 1), AccessResult::kStoreSent);
    }
    t.FailTwice(probe, 2);
    // Another warp's hit makes block 0 most recent: clean block 2 is now
    // the victim and needs one slot.
    ASSERT_EQ(t.Access(Load(0 * 128, 0, 3), 4), AccessResult::kHit);
    t.ExpectFullRetry(probe, 5, AccessResult::kMissIssued);
  }
  {
    SCOPED_TRACE("Reset");
    Twin t(SmallConfig());
    ReserveSetZero(t);
    t.FailTwice(probe, 1);
    t.cache.Reset();
    t.oracle = verify::OracleL1D(SmallConfig());  // history starts over
    t.ExpectFullRetry(probe, 3, AccessResult::kMissIssued);
  }
  {
    SCOPED_TRACE("InjectProtectedLifeFlip");
    Twin t(SmallConfig(PolicyKind::kDlp));
    ReserveSetZero(t);  // every way reserved: DLP stalls like Baseline
    t.FailTwice(probe, 1);
    t.cache.InjectProtectedLifeFlip(0, 0, 1);
    t.ExpectFullRetry(probe, 3, AccessResult::kReservationFail);
  }
  {
    SCOPED_TRACE("blackout start and expiry");
    Twin t(SmallConfig());
    ReserveSetZero(t);
    t.FailTwice(probe, 1);
    t.cache.InjectReservationBlackout(20);
    EXPECT_FALSE(t.cache.RepeatsLastFailure(probe.addr / 128, probe.type));
    t.Fill(0);
    const MemAccess other = Load(6 * 128, 0x60, 7);
    // Blackout failures return before the memo: they never populate it.
    EXPECT_EQ(t.cache.Access(other, 10), AccessResult::kReservationFail);
    EXPECT_FALSE(t.cache.RepeatsLastFailure(other.addr / 128, other.type));
    t.ExpectFullRetry(other, 20, AccessResult::kMissIssued);
  }
  {
    SCOPED_TRACE("white-box accessors");
    Twin t(SmallConfig(PolicyKind::kDlp));
    ReserveSetZero(t);
    t.FailTwice(probe, 1);
    t.cache.mutable_policy();
    EXPECT_FALSE(t.cache.RepeatsLastFailure(probe.addr / 128, probe.type));
    t.FailTwice(probe, 2);
    t.cache.mutable_tda();
    EXPECT_FALSE(t.cache.RepeatsLastFailure(probe.addr / 128, probe.type));
  }
}

}  // namespace
}  // namespace dlpsim
