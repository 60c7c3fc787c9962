// Warp schedulers. The baseline configuration (Table 1) uses two GTO
// (Greedy-Then-Oldest) schedulers per SM; LRR (loose round robin) is
// provided for ablations. Each scheduler owns the warps whose id is
// congruent to its index modulo the scheduler count (GPGPU-Sim's split).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "sm/warp.h"

namespace dlpsim {

enum class SchedulerKind : std::uint8_t { kGto, kLrr };

class WarpScheduler {
 public:
  WarpScheduler(SchedulerKind kind, std::uint32_t index,
                std::uint32_t num_schedulers)
      : kind_(kind), index_(index), stride_(num_schedulers) {}

  /// Picks the warp to issue from this cycle, or kInvalidIndex. GTO: keep
  /// the last-issued warp while it stays issueable, else the oldest
  /// (lowest id) issueable warp. LRR: rotate from the warp after the last
  /// issued one. Every call must pass the same `warps`.
  std::uint32_t Pick(const std::vector<Warp>& warps, Cycle now);

  /// Informs the scheduler what was issued (updates greedy/rotation state).
  void OnIssued(std::uint32_t warp_index) { last_ = warp_index; }

  SchedulerKind kind() const { return kind_; }

 private:
  bool Owns(std::uint32_t warp_index) const {
    return warp_index % stride_ == index_;
  }

  SchedulerKind kind_;
  std::uint32_t index_;
  std::uint32_t stride_;
  std::uint32_t last_ = kInvalidIndex;
  // GTO: lowest owned warp not known to have finished. Only grows, since
  // Warp::Finished() is sticky; the then-oldest scan starts here.
  std::uint32_t first_live_ = index_;
};

}  // namespace dlpsim
