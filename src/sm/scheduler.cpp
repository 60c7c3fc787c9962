#include "sm/scheduler.h"

#include <bit>
#include <cassert>

namespace dlpsim {

WarpScheduler::WarpScheduler(std::uint32_t index,
                             std::uint32_t num_schedulers,
                             std::uint32_t num_warps)
    : index_(index),
      stride_(num_schedulers),
      ready_((num_warps + 63) / 64, 0) {
  for (std::uint32_t w = index; w < num_warps; w += stride_) OnWoken(w);
}

std::uint32_t WarpScheduler::Pick(const std::vector<Warp>& warps, Cycle now) {
  const std::uint32_t n = static_cast<std::uint32_t>(warps.size());
  // Greedy: stick with the last warp while it can issue.
  if (last_ != kInvalidIndex && last_ < n && warps[last_].Issueable(now)) {
    return last_;
  }
  // Then-oldest: the lowest ready-set warp that can issue. Warps waiting
  // on memory are not in the set; retired ones leave it here.
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    for (std::uint64_t bits = ready_[i]; bits != 0; bits &= bits - 1) {
      const auto w =
          static_cast<std::uint32_t>(i * 64 + std::countr_zero(bits));
      assert(w < n);
      if (warps[w].Issueable(now)) return w;
      if (warps[w].Finished()) ready_[i] &= ~Bit(w);
    }
  }
  return kInvalidIndex;
}

}  // namespace dlpsim
