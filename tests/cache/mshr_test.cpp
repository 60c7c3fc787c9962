#include "cache/mshr.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "icnt/crossbar.h"
#include "sim/rng.h"

namespace dlpsim {
namespace {

std::vector<MshrToken> Retire(MshrTable& mshr, Addr block) {
  std::vector<MshrToken> tokens;
  mshr.Retire(block, tokens);
  return tokens;
}

TEST(Mshr, AllocateAndRetire) {
  MshrTable mshr(4, 2);
  EXPECT_TRUE(mshr.CanAllocate());
  EXPECT_FALSE(mshr.HasEntry(10));
  mshr.Allocate(10, 111);
  EXPECT_TRUE(mshr.HasEntry(10));
  EXPECT_EQ(mshr.size(), 1u);
  const auto tokens = Retire(mshr, 10);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], 111u);
  EXPECT_FALSE(mshr.HasEntry(10));
  EXPECT_EQ(mshr.size(), 0u);
}

TEST(Mshr, MergePreservesOrder) {
  MshrTable mshr(4, 4);
  mshr.Allocate(10, 1);
  EXPECT_TRUE(mshr.CanMerge(10));
  mshr.Merge(10, 2);
  mshr.Merge(10, 3);
  const auto tokens = Retire(mshr, 10);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], 1u);
  EXPECT_EQ(tokens[1], 2u);
  EXPECT_EQ(tokens[2], 3u);
}

TEST(Mshr, MergeLimitEnforced) {
  MshrTable mshr(4, 2);
  mshr.Allocate(10, 1);
  mshr.Merge(10, 2);
  EXPECT_FALSE(mshr.CanMerge(10));  // at the 2-target limit
  EXPECT_EQ(mshr.TargetCount(10), 2u);
}

TEST(Mshr, CannotMergeAbsentBlock) {
  MshrTable mshr(4, 2);
  EXPECT_FALSE(mshr.CanMerge(77));
}

TEST(Mshr, CapacityLimit) {
  MshrTable mshr(2, 2);
  mshr.Allocate(1, 0);
  mshr.Allocate(2, 0);
  EXPECT_TRUE(mshr.Full());
  EXPECT_FALSE(mshr.CanAllocate());
  // Merging into existing entries is still possible when full.
  EXPECT_TRUE(mshr.CanMerge(1));
  Retire(mshr, 1);
  EXPECT_TRUE(mshr.CanAllocate());
}

TEST(Mshr, RetireUnknownBlockIsEmpty) {
  MshrTable mshr(2, 2);
  EXPECT_TRUE(Retire(mshr, 123).empty());
}

TEST(Mshr, IndependentEntries) {
  MshrTable mshr(4, 2);
  mshr.Allocate(1, 10);
  mshr.Allocate(2, 20);
  mshr.Merge(1, 11);
  EXPECT_EQ(mshr.TargetCount(1), 2u);
  EXPECT_EQ(mshr.TargetCount(2), 1u);
  EXPECT_EQ(Retire(mshr, 2).size(), 1u);
  EXPECT_EQ(mshr.TargetCount(1), 2u);
}

TEST(Mshr, RetireAppendsToTheCallersBuffer) {
  MshrTable mshr(4, 4);
  mshr.Allocate(1, 10);
  mshr.Merge(1, 11);
  std::vector<MshrToken> out = {7};
  mshr.Retire(1, out);
  EXPECT_EQ(out, (std::vector<MshrToken>{7, 10, 11}));
}

TEST(Mshr, RetiredNodesAreReused) {
  // The pool grows to the most targets live at once, then stays.
  MshrTable mshr(2, 4);
  std::vector<MshrToken> out;
  for (MshrToken round = 0; round < 100; ++round) {
    mshr.Allocate(round, round);
    mshr.Merge(round, round + 1);
    mshr.Merge(round, round + 2);
    out.clear();
    mshr.Retire(round, out);
    ASSERT_EQ(out, (std::vector<MshrToken>{round, round + 1, round + 2}));
  }
  EXPECT_EQ(mshr.pool().size(), 3u);
}

// The table the flat MSHR replaced: a map from block to its targets.
template <typename Target>
struct NaiveMshr {
  std::uint32_t capacity;
  std::uint32_t max_merged;
  std::map<Addr, std::vector<Target>> table;

  bool Full() const { return table.size() >= capacity; }
  bool HasEntry(Addr block) const { return table.count(block) != 0; }
  bool CanMerge(Addr block) const {
    auto it = table.find(block);
    return it != table.end() && it->second.size() < max_merged;
  }
  std::size_t TargetCount(Addr block) const {
    auto it = table.find(block);
    return it == table.end() ? 0 : it->second.size();
  }
  std::vector<Target> Retire(Addr block) {
    auto it = table.find(block);
    if (it == table.end()) return {};
    std::vector<Target> targets = std::move(it->second);
    table.erase(it);
    return targets;
  }
  std::vector<Addr> Blocks() const {
    std::vector<Addr> out;
    for (const auto& [block, _] : table) out.push_back(block);
    return out;
  }
};

// The L1D merges wake tokens, the L2 whole request packets.
MshrToken MakeTarget(std::uint64_t n, MshrToken*) { return n; }
IcntPacket MakeTarget(std::uint64_t n, IcntPacket*) {
  IcntPacket p;
  p.token = n;
  p.src = static_cast<std::uint32_t>(n % 15);
  p.addr = n * 128;
  return p;
}
std::uint64_t Key(MshrToken t) { return t; }
std::uint64_t Key(const IcntPacket& p) { return p.token; }

template <typename Target>
std::vector<std::uint64_t> Keys(const std::vector<Target>& targets) {
  std::vector<std::uint64_t> keys;
  for (const Target& t : targets) keys.push_back(Key(t));
  return keys;
}

template <typename Target>
class MshrReference : public ::testing::Test {};
using TargetTypes = ::testing::Types<MshrToken, IcntPacket>;
TYPED_TEST_SUITE(MshrReference, TargetTypes);

// Seeded Allocate/Merge/Retire sequences against the naive table. Blocks
// come from a universe twice the capacity, so the table fills, entries
// reach their merge limit, and fills retire entries while others live.
TYPED_TEST(MshrReference, MatchesNaiveTableUnderSeededSequences) {
  using Target = TypeParam;
  struct Shape {
    std::uint32_t entries, max_merged;
  };
  for (const Shape shape : {Shape{4, 3}, Shape{32, 8}, Shape{64, 8},
                            Shape{1, 1}}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "entries " << shape.entries << ", max_merged "
                   << shape.max_merged << ", seed " << seed);
      MshrTableOf<Target> flat(shape.entries, shape.max_merged);
      NaiveMshr<Target> naive{shape.entries, shape.max_merged, {}};
      Rng rng(seed);
      std::uint64_t next = 0;
      bool reached_full = false, reached_merge_limit = false,
           retired_beside_live = false;
      std::vector<Target> out;
      for (int op = 0; op < 4000; ++op) {
        const Addr block = rng.Below(2 * shape.entries);
        if (rng.Below(3) != 0) {
          // A miss: merge, allocate, or stall as the L1D and L2 decide.
          ASSERT_EQ(flat.HasEntry(block), naive.HasEntry(block));
          ASSERT_EQ(flat.CanMerge(block), naive.CanMerge(block));
          ASSERT_EQ(flat.Full(), naive.Full());
          ASSERT_EQ(flat.CanAllocate(), !naive.Full());
          const Target target =
              MakeTarget(next++, static_cast<Target*>(nullptr));
          if (naive.CanMerge(block)) {
            flat.Merge(block, target);
            naive.table[block].push_back(target);
          } else if (naive.HasEntry(block)) {
            reached_merge_limit = true;
          } else if (!naive.Full()) {
            flat.Allocate(block, target);
            naive.table[block].push_back(target);
          } else {
            reached_full = true;
          }
        } else {
          // A fill, possibly for a block with no entry.
          retired_beside_live |=
              naive.HasEntry(block) && naive.table.size() > 1;
          out.clear();
          flat.Retire(block, out);
          ASSERT_EQ(Keys(out), Keys(naive.Retire(block)));
        }
        ASSERT_EQ(flat.size(), naive.table.size());
        ASSERT_EQ(flat.TargetCount(block), naive.TargetCount(block));
        ASSERT_EQ(flat.Blocks(), naive.Blocks());
      }
      // Drain: every live entry returns its targets in merge order.
      for (Addr block : naive.Blocks()) {
        out.clear();
        flat.Retire(block, out);
        ASSERT_EQ(Keys(out), Keys(naive.Retire(block)));
      }
      EXPECT_EQ(flat.size(), 0u);
      EXPECT_TRUE(reached_full);
      EXPECT_TRUE(reached_merge_limit);
      if (shape.entries > 1) {
        EXPECT_TRUE(retired_beside_live);
      }
      // The pool never outgrows the targets the table can hold at once.
      EXPECT_LE(flat.pool().size(),
                std::size_t{shape.entries} * shape.max_merged);
    }
  }
}

}  // namespace
}  // namespace dlpsim
