// Allocation regression test for one untraced figure cell.
//
// This binary replaces the global operator new/delete to record the
// largest single request made while a recording scope is open. It is
// its own executable so the replaced allocator touches no other test.
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "harness.h"

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_largest{0};

void* Allocate(std::size_t n) {
  if (g_recording.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Largest single allocation made while running `fn`.
template <typename Fn>
std::size_t LargestAllocation(Fn fn) {
  g_largest.store(0);
  g_recording.store(true);
  fn();
  g_recording.store(false);
  return g_largest.load();
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dlpsim::bench {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(CellAllocation, UntracedCellMakesNoMegabyteAllocation) {
  ::unsetenv("DLPSIM_TRACE");
  const std::size_t largest = LargestAllocation(
      [] { SimulateUncached("NW", "dlp", 0.02, RunOverrides{}); });
  EXPECT_LT(largest, kMiB) << "largest single allocation: " << largest
                           << " B";
}

TEST(CellAllocation, TracedCellAllocatesItsRing) {
  // Proves the hook sees the simulator's buffers: under DLPSIM_TRACE the
  // default 2^20-event ring is one allocation of tens of MiB.
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() /
      ("dlpsim_cell_alloc_" + std::to_string(::getpid()));
  ASSERT_EQ(::setenv("DLPSIM_TRACE", "1", 1), 0);
  ASSERT_EQ(::setenv("DLPSIM_TRACE_OUT", out.c_str(), 1), 0);
  const std::size_t largest = LargestAllocation(
      [] { SimulateUncached("NW", "dlp", 0.02, RunOverrides{}); });
  ::unsetenv("DLPSIM_TRACE");
  ::unsetenv("DLPSIM_TRACE_OUT");
  std::error_code ec;
  std::filesystem::remove_all(out, ec);
  EXPECT_GE(largest, 32 * kMiB) << "largest single allocation: "
                                 << largest << " B";
}

}  // namespace
}  // namespace dlpsim::bench
