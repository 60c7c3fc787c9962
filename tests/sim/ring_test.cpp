#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/rng.h"

namespace dlpsim {
namespace {

TEST(Ring, FifoOrderAcrossGrowth) {
  Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);  // nothing is allocated before a push
  for (int i = 0; i < 10; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.capacity(), 16u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring[static_cast<std::size_t>(i)], i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, KeepsItsStorage) {
  Ring<int> ring;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) ring.push_back(i);
    while (!ring.empty()) ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), 8u);
  ring.clear();
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Ring, EraseKeepsTheOrderOfTheRest) {
  Ring<int> ring;
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(6);
  ring.push_back(7);  // wrapped: the ring holds 2..7
  ring.erase(1);
  ASSERT_EQ(ring.size(), 5u);
  const int want[] = {2, 4, 5, 6, 7};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ring[i], want[i]);
}

// Seeded pushes, pops, erases and clears against std::deque. The depth
// follows a target redrawn every 64 operations, so the ring grows in
// bursts with its head anywhere in the storage, and its contents wrap
// round the end of the storage again and again between them.
TEST(Ring, MatchesDequeUnderSeededOperations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    Rng rng(seed);
    std::uint64_t next = 0;
    std::size_t target = 0, grown = 0, wrapped = 0;
    for (int op = 0; op < 10000; ++op) {
      if (op % 64 == 0) target = rng.Below(100);
      const std::uint64_t kind = rng.Below(100);
      if (kind < 2) {
        if (ref.empty()) continue;
        const std::size_t i = rng.Below(ref.size());
        ring.erase(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind < 3) {
        ring.clear();
        ref.clear();
      } else if (ref.size() < target ? kind < 75 : kind < 25) {
        const std::size_t before = ring.capacity();
        const std::uint64_t burst = 1 + rng.Below(4);
        for (std::uint64_t k = 0; k < burst; ++k) {
          ring.push_back(next);
          ref.push_back(next++);
        }
        grown += ring.capacity() != before;
      } else {
        if (ref.empty()) continue;
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
      }
      ASSERT_EQ(ring.size(), ref.size());
      ASSERT_EQ(ring.empty(), ref.empty());
      // The back sits in a slot before the front's: the contents wrap.
      wrapped += ring.size() > 1 && &ring[ring.size() - 1] < &ring[0];
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ring[i], ref[i]) << "index " << i;
      }
    }
    EXPECT_GE(grown, 3u);
    EXPECT_GT(wrapped, 100u);
  }
}

}  // namespace
}  // namespace dlpsim
