// Warp schedulers. The baseline configuration (Table 1) uses two GTO
// (Greedy-Then-Oldest) schedulers per SM. Each scheduler owns the warps
// whose id is congruent to its index modulo the scheduler count
// (GPGPU-Sim's split).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "sm/warp.h"

namespace dlpsim {

class WarpScheduler {
 public:
  /// `num_warps` is the size of the `warps` vector every Pick passes.
  WarpScheduler(std::uint32_t index, std::uint32_t num_schedulers,
                std::uint32_t num_warps);

  /// Picks the warp to issue from this cycle, or kInvalidIndex: the
  /// last-issued warp while it stays issueable, else the oldest (lowest
  /// id) issueable warp. Every call must pass the same `warps`.
  std::uint32_t Pick(const std::vector<Warp>& warps, Cycle now);

  /// Informs the scheduler what was issued (updates the greedy warp).
  void OnIssued(std::uint32_t warp_index) { last_ = warp_index; }

  /// Owned warp `warp_index` blocked on a load (Warp::BlockOnMem).
  void OnBlocked(std::uint32_t warp_index) {
    ready_[warp_index / 64] &= ~Bit(warp_index);
  }
  /// Owned warp `warp_index` stopped waiting on memory.
  void OnWoken(std::uint32_t warp_index) {
    ready_[warp_index / 64] |= Bit(warp_index);
  }

  /// Whether owned warp `warp_index` is in the ready set: every owned
  /// warp that might issue. It holds each unfinished warp not waiting on
  /// memory, SFU-busy ones included, and no warp waiting on memory;
  /// retired warps stay until a Pick drops them.
  bool InReadySet(std::uint32_t warp_index) const {
    return (ready_[warp_index / 64] & Bit(warp_index)) != 0;
  }

  /// No owned warp is in the ready set: none can issue until one wakes.
  bool ReadySetEmpty() const {
    for (std::uint64_t word : ready_) {
      if (word != 0) return false;
    }
    return true;
  }

  /// The last-issued warp, which Pick keeps picking while it can issue;
  /// kInvalidIndex before the first issue.
  std::uint32_t greedy() const { return last_; }

  bool Owns(std::uint32_t warp_index) const {
    return warp_index % stride_ == index_;
  }

 private:
  static std::uint64_t Bit(std::uint32_t warp_index) {
    return std::uint64_t{1} << (warp_index % 64);
  }

  std::uint32_t index_;
  std::uint32_t stride_;
  std::uint32_t last_ = kInvalidIndex;
  // Bit w % 64 of word w / 64 stands for warp w; the bits of warps this
  // scheduler does not own stay clear. The then-oldest scan visits set
  // bits only, lowest first.
  std::vector<std::uint64_t> ready_;
};

}  // namespace dlpsim
