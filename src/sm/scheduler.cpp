#include "sm/scheduler.h"

namespace dlpsim {

std::uint32_t WarpScheduler::Pick(const std::vector<Warp>& warps, Cycle now) {
  const std::uint32_t n = static_cast<std::uint32_t>(warps.size());

  if (kind_ == SchedulerKind::kGto) {
    // Greedy: stick with the last warp while it can issue.
    if (last_ != kInvalidIndex && last_ < n && warps[last_].Issueable(now)) {
      return last_;
    }
    // Then-oldest: lowest warp id owned by this scheduler, skipping the
    // prefix that has already retired.
    while (first_live_ < n && warps[first_live_].Finished()) {
      first_live_ += stride_;
    }
    for (std::uint32_t w = first_live_; w < n; w += stride_) {
      if (warps[w].Issueable(now)) return w;
    }
    return kInvalidIndex;
  }

  // LRR: start after the last issued warp, wrap around once.
  const std::uint32_t owned = (n + stride_ - 1 - index_) / stride_;
  std::uint32_t start_slot = 0;
  if (last_ != kInvalidIndex && Owns(last_)) {
    start_slot = (last_ - index_) / stride_ + 1;
  }
  for (std::uint32_t k = 0; k < owned; ++k) {
    const std::uint32_t slot = (start_slot + k) % owned;
    const std::uint32_t w = index_ + slot * stride_;
    if (w < n && warps[w].Issueable(now)) return w;
  }
  return kInvalidIndex;
}

}  // namespace dlpsim
