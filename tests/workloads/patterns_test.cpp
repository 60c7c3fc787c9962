#include "workloads/patterns.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "workloads/registry.h"

namespace dlpsim {
namespace {

TEST(StreamingPattern, NeverRevisitsALine) {
  StreamingPattern p(0, 32, 32, /*iters_hint=*/50);
  std::set<Addr> lines;
  for (std::uint64_t warp = 0; warp < 4; ++warp) {
    for (std::uint64_t iter = 0; iter < 50; ++iter) {
      const Addr line = p.AddressFor(warp, iter, 0) / kLineBytes;
      EXPECT_TRUE(lines.insert(line).second)
          << "line revisited at warp " << warp << " iter " << iter;
    }
  }
}

TEST(StreamingPattern, WarpsAreDisjoint) {
  StreamingPattern p(0, 32, 32, 10);
  // Even past the hint, warps 0 and 1 must not collide within the hint.
  for (std::uint64_t i = 0; i < 10; ++i) {
    for (std::uint64_t j = 0; j < 10; ++j) {
      EXPECT_NE(p.AddressFor(0, i, 0) / kLineBytes,
                p.AddressFor(1, j, 0) / kLineBytes);
    }
  }
}

TEST(PrivateCyclicPattern, CyclesThroughExactlyWsLines) {
  PrivateCyclicPattern p(0, 32, 32, /*ws_lines=*/4);
  std::set<Addr> lines;
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    lines.insert(p.AddressFor(7, iter, 0) / kLineBytes);
  }
  EXPECT_EQ(lines.size(), 4u);
  // Period is exactly ws_lines.
  EXPECT_EQ(p.AddressFor(7, 0, 0), p.AddressFor(7, 4, 0));
  EXPECT_NE(p.AddressFor(7, 0, 0), p.AddressFor(7, 3, 0));
}

TEST(PrivateCyclicPattern, WarpsDisjoint) {
  PrivateCyclicPattern p(0, 32, 32, 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    for (std::uint64_t j = 0; j < 4; ++j) {
      EXPECT_NE(p.AddressFor(0, i, 0) / kLineBytes,
                p.AddressFor(1, j, 0) / kLineBytes);
    }
  }
}

TEST(PrivateCyclicPattern, ZeroWsClampedToOne) {
  PrivateCyclicPattern p(0, 32, 32, 0);
  EXPECT_EQ(p.AddressFor(0, 0, 0), p.AddressFor(0, 1, 0));
}

TEST(SharedTilePattern, GroupMembersShareLines) {
  SharedTilePattern p(0, 32, 32, /*tile_lines=*/8, /*share_degree=*/4);
  // Warps 0..3 share a tile; warp 4 starts a new one.
  EXPECT_EQ(p.AddressFor(0, 2, 0), p.AddressFor(3, 2, 0));
  EXPECT_NE(p.AddressFor(0, 2, 0), p.AddressFor(4, 2, 0));
}

TEST(SharedTilePattern, ShareDegreeZeroMeansAllWarps) {
  SharedTilePattern p(0, 32, 32, 8, 0);
  EXPECT_EQ(p.AddressFor(0, 5, 0), p.AddressFor(1000, 5, 0));
}

TEST(SharedTilePattern, WalksTileCyclically) {
  SharedTilePattern p(0, 32, 32, 3, 4);
  std::set<Addr> lines;
  for (std::uint64_t iter = 0; iter < 30; ++iter) {
    lines.insert(p.AddressFor(0, iter, 0) / kLineBytes);
  }
  EXPECT_EQ(lines.size(), 3u);
}

TEST(IndirectPattern, DeterministicAndInUniverse) {
  IndirectPattern p(0, 32, 32, /*universe=*/100, 0.0, 7);
  IndirectPattern q(0, 32, 32, 100, 0.0, 7);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Addr a = p.AddressFor(3, i, 0);
    EXPECT_EQ(a, q.AddressFor(3, i, 0));
    EXPECT_LT(a / kLineBytes, 100u);
  }
}

TEST(IndirectPattern, SeedsChangeTheStream) {
  IndirectPattern p(0, 32, 32, 1000, 0.0, 1);
  IndirectPattern q(0, 32, 32, 1000, 0.0, 2);
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    same += p.AddressFor(0, i, 0) == q.AddressFor(0, i, 0) ? 1 : 0;
  }
  EXPECT_LT(same, 10);
}

TEST(IndirectPattern, ZipfSkewsTowardsLowLines) {
  IndirectPattern p(0, 32, 32, 1000, 0.9, 3);
  std::uint64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.AddressFor(i % 64, i, 0) / kLineBytes < 20) ++low;
  }
  EXPECT_GT(low, static_cast<std::uint64_t>(0.1 * n));
}

TEST(AccessPattern, LanesGroupWithinLines) {
  PrivateCyclicPattern p(0, /*lanes_per_line=*/8, 32, 4);
  EXPECT_EQ(p.groups(), 4u);
  // Lanes 0..7 share line; lane 8 starts the next group.
  const Addr l0 = p.AddressFor(0, 0, 0) / kLineBytes;
  const Addr l7 = p.AddressFor(0, 0, 7) / kLineBytes;
  const Addr l8 = p.AddressFor(0, 0, 8) / kLineBytes;
  EXPECT_EQ(l0, l7);
  EXPECT_NE(l0, l8);
  // Within a group, lanes touch distinct words.
  EXPECT_NE(p.AddressFor(0, 0, 0), p.AddressFor(0, 0, 1));
}

TEST(AccessPattern, BaseOffsetsApply) {
  PrivateCyclicPattern p(1ull << 32, 32, 32, 2);
  EXPECT_GE(p.AddressFor(0, 0, 0), 1ull << 32);
}

TEST(AccessPattern, ZeroLanesPerLineThrows) {
  EXPECT_THROW(StreamingPattern(0, 0, 32, 10), std::invalid_argument);
  EXPECT_THROW(PrivateCyclicPattern(0, 0, 32, 4), std::invalid_argument);
  EXPECT_THROW(SharedTilePattern(0, 0, 32, 4, 2), std::invalid_argument);
  EXPECT_THROW(IndirectPattern(0, 0, 32, 1024, 0.0, 7),
               std::invalid_argument);
  ProgramBuilder b(4);
  EXPECT_THROW(b.LoadIndirect(1024, 0.0, 7, /*lanes_per_line=*/0),
               std::invalid_argument);
}

TEST(AccessPattern, DescribeIsNonEmpty) {
  StreamingPattern a(0, 32, 32, 1);
  PrivateCyclicPattern b(0, 32, 32, 2);
  SharedTilePattern c(0, 32, 32, 2, 2);
  IndirectPattern d(0, 32, 32, 10, 0.5, 1);
  for (const AccessPattern* p :
       std::initializer_list<const AccessPattern*>{&a, &b, &c, &d}) {
    EXPECT_FALSE(p->Describe().empty());
  }
}

}  // namespace
}  // namespace dlpsim
