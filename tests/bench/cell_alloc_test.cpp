// Allocation regression tests for untraced figure cells.
//
// This binary replaces the global operator new/delete to record the
// number of requests, and the largest, made while a recording scope is
// open. It is its own executable so the replaced allocator touches no
// other test.
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "harness.h"
#include "workloads/registry.h"

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_largest{0};

void* Allocate(std::size_t n) {
  if (g_recording.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
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

// Number of allocations made while running `fn`.
template <typename Fn>
std::size_t AllocationCount(Fn fn) {
  g_count.store(0);
  g_recording.store(true);
  fn();
  g_recording.store(false);
  return g_count.load();
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

// The memory path allocates nothing per access, packet or fill: its
// queues, MSHRs and hand-off buffers keep their storage once they have
// grown to their working size. A CI cell (busy miss path) and a CS cell
// are each built outside the counted scope and stepped through their
// first 5,000 L1D accesses, in which that storage grows (about 1,300
// allocations for SRK, 650 for HS); then only GpuSimulator::Run() is
// counted. No reuse-distance profiler is attached: its per-set tables
// double as the footprint grows. The invariant checker is off: its
// brute-force re-derivations allocate by design, every check interval.
TEST(CellAllocation, WarmRunAllocatesLessThanOncePer100L1DAccesses) {
  ::unsetenv("DLPSIM_TRACE");
  std::optional<std::string> check;
  if (const char* v = std::getenv("DLPSIM_CHECK")) check = v;
  ASSERT_EQ(::setenv("DLPSIM_CHECK", "0", 1), 0);
  struct Cell {
    const char* app;
    const char* config;
    double scale;
  };
  for (const Cell& cell : {Cell{"SRK", "dlp", 0.25}, Cell{"HS", "base", 0.5}}) {
    SCOPED_TRACE(std::string(cell.app) + "/" + cell.config);
    const Workload wl = MakeWorkload(cell.app, cell.scale);
    GpuSimulator gpu(ConfigFor(cell.config), wl.program.get(),
                     wl.warps_per_sm);
    const auto l1d_accesses = [&gpu] {
      std::uint64_t n = 0;
      for (const SmCore& core : gpu.cores()) n += core.l1d().stats().accesses;
      return n;
    };
    while (l1d_accesses() < 5000 && !gpu.Done()) gpu.Step();
    const std::uint64_t warm = l1d_accesses();
    const std::size_t allocations = AllocationCount([&gpu] { gpu.Run(); });
    const std::uint64_t accesses = l1d_accesses() - warm;
    ASSERT_GT(accesses, 20000u);
    EXPECT_LT(allocations * 100, accesses)
        << allocations << " allocations in Run() for " << accesses
        << " L1D accesses";
  }
  if (check) {
    ::setenv("DLPSIM_CHECK", check->c_str(), 1);
  } else {
    ::unsetenv("DLPSIM_CHECK");
  }
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
