#include "sm/coalescer.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "workloads/patterns.h"

namespace dlpsim {
namespace {

std::vector<Addr> Lines(const Coalescer& c, const AccessPattern& p,
                        std::uint64_t warp, std::uint64_t iter) {
  std::vector<Addr> lines;
  c.Transactions(p, warp, iter, &lines);
  return lines;
}

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction) {
  Coalescer c(32, 128);
  StreamingPattern p(0, /*lanes_per_line=*/32, 32, /*iters_hint=*/10);
  const auto lines = Lines(c, p, 0, 0);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0] % 128, 0u);
}

TEST(Coalescer, LanesPerLineControlsTransactionCount) {
  Coalescer c(32, 128);
  for (std::uint32_t lanes : {32u, 16u, 8u, 4u, 2u, 1u}) {
    StreamingPattern p(0, lanes, 32, 10);
    EXPECT_EQ(Lines(c, p, 3, 7).size(), 32u / lanes)
        << "lanes_per_line=" << lanes;
  }
}

TEST(Coalescer, TransactionsAreLineAlignedAndUnique) {
  Coalescer c(32, 128);
  IndirectPattern p(0, 4, 32, 1000, 0.0, 42);
  const auto lines = Lines(c, p, 5, 9);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i] % 128, 0u);
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      EXPECT_NE(lines[i], lines[j]);
    }
  }
}

TEST(Coalescer, DuplicateLaneAddressesFold) {
  Coalescer c(32, 128);
  // All lanes to the same word.
  std::vector<Addr> lanes(32, 0x1000);
  EXPECT_EQ(c.TransactionsFromLanes(lanes).size(), 1u);
  // Two distinct lines interleaved across lanes.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = (i % 2 == 0) ? 0x1000 : 0x2000;
  }
  EXPECT_EQ(c.TransactionsFromLanes(lanes).size(), 2u);
}

TEST(Coalescer, FirstTouchOrderPreserved) {
  Coalescer c(32, 128);
  std::vector<Addr> lanes = {0x2000, 0x1000, 0x2040, 0x3000};
  const auto lines = c.TransactionsFromLanes(lanes);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 0x2000u);
  EXPECT_EQ(lines[1], 0x1000u);
  EXPECT_EQ(lines[2], 0x3000u);
}

TEST(Coalescer, BroadcastSharedTileIsOneTransaction) {
  Coalescer c(32, 128);
  SharedTilePattern p(0, 32, 32, /*tile_lines=*/16, /*share_degree=*/0);
  // Two warps at the same iteration touch the same line.
  const auto a = Lines(c, p, 0, 3);
  const auto b = Lines(c, p, 17, 3);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
}

TEST(Coalescer, RejectsLineSizesThatAreNotPowersOfTwo) {
  EXPECT_THROW(Coalescer(32, 0), std::invalid_argument);
  EXPECT_THROW(Coalescer(32, 96), std::invalid_argument);
  EXPECT_NO_THROW(Coalescer(32, 8));
}

// The per-group fast path against the definition: every lane's AddressFor,
// folded lane by lane. Covers bases and line sizes that put one lane group
// across several lines, groups that straddle a line, lanes_per_line that
// does not divide the warp (3) or exceeds it (40), and a coalescer warp
// narrower than the pattern's.
TEST(Coalescer, MatchesPerLaneReference) {
  struct Point {
    std::uint64_t warp, iter;
  };
  const Point points[] = {{0, 0}, {1, 3}, {17, 9}, {767, 123456}};
  for (const std::uint32_t lanes_per_line : {1u, 2u, 3u, 8u, 32u, 40u}) {
    for (const Addr base : {Addr{0}, Addr{4}, Addr{100}, Addr{1} << 20}) {
      std::vector<std::unique_ptr<AccessPattern>> patterns;
      patterns.push_back(
          std::make_unique<StreamingPattern>(base, lanes_per_line, 32, 50));
      patterns.push_back(
          std::make_unique<PrivateCyclicPattern>(base, lanes_per_line, 32, 7));
      patterns.push_back(std::make_unique<SharedTilePattern>(
          base, lanes_per_line, 32, 5, 3));
      patterns.push_back(std::make_unique<IndirectPattern>(
          base, lanes_per_line, 32, 1000, 0.0, 11));
      patterns.push_back(std::make_unique<IndirectPattern>(
          base, lanes_per_line, 32, 1000, 0.3, 12));
      for (const std::uint32_t line_bytes : {8u, 64u, 128u, 256u}) {
        for (const std::uint32_t warp_size : {32u, 20u}) {
          const Coalescer c(warp_size, line_bytes);
          std::vector<Addr> lines = {1, 2, 3};  // stale contents to replace
          for (const auto& p : patterns) {
            for (const Point& pt : points) {
              std::vector<Addr> lane_addrs;
              for (std::uint32_t lane = 0; lane < warp_size; ++lane) {
                lane_addrs.push_back(p->AddressFor(pt.warp, pt.iter, lane));
              }
              c.Transactions(*p, pt.warp, pt.iter, &lines);
              ASSERT_EQ(lines, c.TransactionsFromLanes(lane_addrs))
                  << p->Describe() << " lanes_per_line=" << lanes_per_line
                  << " base=" << base << " line_bytes=" << line_bytes
                  << " warp_size=" << warp_size << " warp=" << pt.warp
                  << " iter=" << pt.iter;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dlpsim
