// SnapshotPolicy counts protected life straight from the tag arrays.
// These tests plant lines with known states and PL values and check the
// exact histogram and protected-line count, so the walk is compared with
// hand-derived values rather than with a second walk.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "cache/line.h"
#include "gpu/simulator.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

SimConfig SmallGpu() {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.num_cores = 4;
  cfg.num_partitions = 2;
  return cfg;
}

void Plant(SmCore& core, std::uint32_t set, std::uint32_t way,
           LineState state, std::uint32_t pl) {
  CacheLine& line = core.l1d().mutable_tda().At(set, way);
  line.block = std::uint64_t{set} * 1000 + way;
  line.state = state;
  line.protected_life = pl;
}

/// One line of each kind the snapshot must tell apart, spread over two
/// SMs: 4 occupied lines, 3 of them protected.
void PlantMix(GpuSimulator& gpu) {
  SmCore& sm0 = gpu.cores()[0];
  SmCore& sm1 = gpu.cores()[1];
  Plant(sm0, 0, 0, LineState::kInvalid, 9);  // stale PL: not occupied
  Plant(sm0, 0, 1, LineState::kReserved, 3);
  Plant(sm0, 1, 0, LineState::kValid, 0);
  Plant(sm1, 2, 3, LineState::kModified, 7);
  Plant(sm1, 5, 1, LineState::kValid, 20);  // wider than 4 bits: bucket 15
}

TEST(PlSnapshot, CountsPlantedLinesExactly) {
  const Workload wl = MakeWorkload("SRK", 0.05);
  GpuSimulator gpu(SmallGpu(), wl.program.get(), wl.warps_per_sm);
  PlantMix(gpu);

  std::array<std::uint64_t, 16> want{};
  want[0] = 1;
  want[3] = 1;
  want[7] = 1;
  want[15] = 1;
  const PolicySnapshot snap = gpu.SnapshotPolicy();
  EXPECT_EQ(snap.pl_histogram, want);
  EXPECT_EQ(snap.protected_lines, 3u);
}

TEST(PlSnapshot, CountersSurviveReset) {
  const Workload wl = MakeWorkload("HS", 0.05);
  GpuSimulator gpu(SmallGpu(), wl.program.get(), wl.warps_per_sm);
  PlantMix(gpu);
  ASSERT_EQ(gpu.SnapshotPolicy().protected_lines, 3u);

  for (SmCore& core : gpu.cores()) core.l1d().Reset();
  const PolicySnapshot snap = gpu.SnapshotPolicy();
  EXPECT_EQ(snap.pl_histogram, (std::array<std::uint64_t, 16>{}));
  EXPECT_EQ(snap.protected_lines, 0u);
}

}  // namespace
}  // namespace dlpsim
