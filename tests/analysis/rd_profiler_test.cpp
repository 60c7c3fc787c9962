#include "analysis/rd_profiler.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace dlpsim {
namespace {

void Touch(RdProfiler& p, std::uint32_t set, Addr block, Pc pc = 0) {
  p.OnAccess(set, block, pc, AccessType::kLoad, false);
}

TEST(RdBucket, PaperRanges) {
  EXPECT_EQ(RdBucket(1), 0u);
  EXPECT_EQ(RdBucket(4), 0u);
  EXPECT_EQ(RdBucket(5), 1u);
  EXPECT_EQ(RdBucket(8), 1u);
  EXPECT_EQ(RdBucket(9), 2u);
  EXPECT_EQ(RdBucket(64), 2u);
  EXPECT_EQ(RdBucket(65), 3u);
  EXPECT_EQ(RdBucket(100000), 3u);
}

TEST(RdProfiler, Figure2Example) {
  // Paper Fig. 2: accesses Addr0, Addr1, Addr2, Addr0 to one set give
  // Addr0 a reuse distance of 3.
  RdProfiler p(1);
  Touch(p, 0, 0);
  Touch(p, 0, 1);
  Touch(p, 0, 2);
  Touch(p, 0, 0);
  EXPECT_EQ(p.re_references(), 1u);
  EXPECT_EQ(p.global().buckets[0], 1u);  // rd = 3 -> bucket "1~4"
}

TEST(RdProfiler, BackToBackReuseIsDistanceOne) {
  RdProfiler p(1);
  Touch(p, 0, 7);
  Touch(p, 0, 7);
  EXPECT_EQ(p.global().buckets[0], 1u);
  EXPECT_EQ(p.re_references(), 1u);
}

TEST(RdProfiler, FirstTouchesAreNotReReferences) {
  RdProfiler p(2);
  for (Addr b = 0; b < 10; ++b) Touch(p, 0, b);
  EXPECT_EQ(p.re_references(), 0u);
  EXPECT_EQ(p.accesses(), 10u);
}

TEST(RdProfiler, SetsAreIndependentStreams) {
  RdProfiler p(2);
  Touch(p, 0, 5);
  // 100 accesses to set 1 must not affect set 0's distances.
  for (Addr b = 0; b < 100; ++b) Touch(p, 1, 1000 + b);
  Touch(p, 0, 5);
  EXPECT_EQ(p.global().buckets[0], 1u);  // rd = 1 within set 0
}

TEST(RdProfiler, LongDistancesLandInTopBucket) {
  RdProfiler p(1);
  Touch(p, 0, 42);
  for (Addr b = 0; b < 70; ++b) Touch(p, 0, 100 + b);
  Touch(p, 0, 42);
  EXPECT_EQ(p.global().buckets[3], 1u);  // rd = 71
}

TEST(RdProfiler, DistanceAttributedToReReferencingPc) {
  RdProfiler p(1);
  Touch(p, 0, 1, /*pc=*/10);  // brought in by PC 10
  Touch(p, 0, 2, 99);
  Touch(p, 0, 1, /*pc=*/20);  // re-referenced by PC 20
  const auto& per_pc = p.per_pc();
  EXPECT_EQ(per_pc.count(10), 0u);
  ASSERT_EQ(per_pc.count(20), 1u);
  EXPECT_EQ(per_pc.at(20).total(), 1u);
}

TEST(RdProfiler, ConsecutiveReusesMeasureEachInterval) {
  RdProfiler p(1);
  Touch(p, 0, 1);
  Touch(p, 0, 2);
  Touch(p, 0, 1);  // rd 2
  Touch(p, 0, 1);  // rd 1
  EXPECT_EQ(p.global().total(), 2u);
  EXPECT_EQ(p.global().buckets[0], 2u);
}

TEST(RdProfiler, ResetClears) {
  RdProfiler p(1);
  Touch(p, 0, 1);
  Touch(p, 0, 1);
  p.Reset();
  EXPECT_EQ(p.accesses(), 0u);
  EXPECT_EQ(p.re_references(), 0u);
  Touch(p, 0, 1);
  EXPECT_EQ(p.re_references(), 0u);  // history gone: first touch again
}

void Access(RdProfiler& p, std::uint32_t set, Addr block, bool hit) {
  p.OnAccess(set, block, 0, AccessType::kLoad, hit);
}

TEST(RdProfiler, CompulsoryMissesExcluded) {
  // Paper Fig. 4 excludes compulsory misses "as by definition these
  // accesses will always miss regardless of the L1D cache size".
  RdProfiler t(1);
  Access(t, 0, 1, false);  // compulsory
  Access(t, 0, 2, false);  // compulsory
  EXPECT_EQ(t.re_references(), 0u);
  EXPECT_EQ(t.compulsory_accesses(), 2u);
  EXPECT_DOUBLE_EQ(t.reuse_miss_rate(), 0.0);
}

TEST(RdProfiler, ReuseMissesCounted) {
  RdProfiler t(1);
  Access(t, 0, 1, false);
  Access(t, 0, 1, false);  // reuse, missed (was evicted)
  Access(t, 0, 1, true);   // reuse, hit
  EXPECT_EQ(t.re_references(), 2u);
  EXPECT_EQ(t.reuse_misses(), 1u);
  EXPECT_DOUBLE_EQ(t.reuse_miss_rate(), 0.5);
}

TEST(RdProfiler, PerSetFirstTouch) {
  // The same block in a different set is a separate compulsory miss.
  RdProfiler t(2);
  Access(t, 0, 1, false);
  Access(t, 1, 1, false);
  EXPECT_EQ(t.compulsory_accesses(), 2u);
  EXPECT_EQ(t.re_references(), 0u);
}

TEST(RdProfiler, ResetClearsHistory) {
  RdProfiler t(1);
  Access(t, 0, 1, false);
  Access(t, 0, 1, false);
  t.Reset();
  EXPECT_EQ(t.re_references(), 0u);
  Access(t, 0, 1, false);
  EXPECT_EQ(t.compulsory_accesses(), 1u);
}

// Naive reference model: one ordered map over (set, block), per-set
// counters, an ordered per-PC map, and the two access classes of Fig. 4
// (first touch = compulsory; re-reference = reuse, missed when !hit).
struct NaiveRd {
  explicit NaiveRd(std::uint32_t sets) : counter(sets) {}

  void OnAccess(std::uint32_t set, Addr block, Pc pc, bool hit) {
    ++accesses;
    const std::uint64_t now = ++counter[set];
    const auto [it, first] = last.try_emplace({set, block}, now);
    if (first) {
      ++compulsory;
      return;
    }
    global.Add(now - it->second);
    per_pc[pc].Add(now - it->second);
    it->second = now;
    ++reuse;
    if (!hit) ++reuse_misses;
  }

  std::vector<std::uint64_t> counter;
  std::map<std::pair<std::uint32_t, Addr>, std::uint64_t> last;
  RddHistogram global;
  std::map<Pc, RddHistogram> per_pc;
  std::uint64_t accesses = 0, compulsory = 0, reuse = 0, reuse_misses = 0;
};

void ExpectSame(const NaiveRd& want, const RdProfiler& got) {
  ASSERT_EQ(got.accesses(), want.accesses);
  ASSERT_EQ(got.compulsory_accesses(), want.compulsory);
  ASSERT_EQ(got.re_references(), want.reuse);
  ASSERT_EQ(got.reuse_misses(), want.reuse_misses);
  ASSERT_EQ(got.global().buckets, want.global.buckets);
  const std::map<Pc, RddHistogram> per_pc = got.per_pc();
  ASSERT_EQ(per_pc.size(), want.per_pc.size());
  for (auto g = per_pc.begin(), w = want.per_pc.begin(); g != per_pc.end();
       ++g, ++w) {
    ASSERT_EQ(g->first, w->first);
    ASSERT_EQ(g->second.buckets, w->second.buckets);
  }
}

TEST(RdProfiler, MatchesNaiveReferenceModel) {
  // Set 0 is hot (a few blocks, short distances); set 1 walks a cold
  // range of over 10k distinct blocks, so its table doubles from 16
  // slots at least 10 times; sets 2-4 mix both. Blocks are multiples of
  // 2^20, so a hash that ignored high bits would pile them into one run.
  constexpr std::uint32_t kSets = 5;
  constexpr Addr kStride = Addr{1} << 20;
  constexpr std::array<Pc, 6> kPcs = {0, 1, 0x40, 0x1234, 0x7FFFFFFF,
                                      0xFFFFFFFF};
  RdProfiler got(kSets);
  for (int round = 0; round < 2; ++round) {
    Rng rng(0xD1F + round);
    NaiveRd want(kSets);
    std::uint64_t cold = 0;
    for (int i = 1; i <= 120000; ++i) {
      const std::uint32_t set = static_cast<std::uint32_t>(rng.Below(kSets));
      Addr block = 0;
      if (set == 0) {
        block = rng.Below(6) * kStride;
      } else if (set == 1) {
        block = (rng.Below(4) == 0 ? rng.Below(cold + 1) : cold++) * kStride;
      } else {
        block = rng.Below(rng.Below(2) == 0 ? 8 : 3000) * kStride + set;
      }
      const Pc pc = kPcs[rng.Below(kPcs.size())];
      const bool hit = rng.Below(2) == 0;
      want.OnAccess(set, block, pc, hit);
      got.OnAccess(set, block, pc, AccessType::kLoad, hit);
      if (i % 1000 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectSame(want, got)) << "access " << i;
      }
    }
    ASSERT_GE(cold, 10000u);
    got.Reset();
    ASSERT_NO_FATAL_FAILURE(ExpectSame(NaiveRd(kSets), got));
  }
}

TEST(RddHistogram, FractionsAndMerge) {
  RddHistogram a;
  a.Add(1);
  a.Add(6);
  a.Add(10);
  a.Add(100);
  EXPECT_DOUBLE_EQ(a.fraction(0), 0.25);
  RddHistogram b;
  b.Add(2);
  b.Merge(a);
  EXPECT_EQ(b.total(), 5u);
  EXPECT_EQ(b.buckets[0], 2u);
}

TEST(RddHistogram, EmptyFractionIsZero) {
  RddHistogram h;
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
  EXPECT_EQ(h.total(), 0u);
}

}  // namespace
}  // namespace dlpsim
