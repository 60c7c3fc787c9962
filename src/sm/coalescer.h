// Memory-access coalescer: folds the 32 per-lane addresses of one warp
// memory instruction into the minimal set of line transactions, in lane
// order (GPGPU-Sim generates one transaction per distinct 128B segment).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "workloads/patterns.h"

namespace dlpsim {

class Coalescer {
 public:
  /// Throws std::invalid_argument unless `line_bytes` is a power of two.
  explicit Coalescer(std::uint32_t warp_size, std::uint32_t line_bytes);

  /// Replaces `*lines` with the distinct line-aligned addresses touched
  /// by lanes [0, warp_size) of `pattern` at (warp, iter), in order of
  /// first touch. Evaluates the pattern once per lane group: lanes of a
  /// group differ only by their word offset.
  void Transactions(const AccessPattern& pattern, std::uint64_t warp,
                    std::uint64_t iter, std::vector<Addr>* lines) const;

  /// Same, from raw lane addresses (unit tests / custom generators).
  std::vector<Addr> TransactionsFromLanes(
      const std::vector<Addr>& lane_addrs) const;

 private:
  std::uint32_t warp_size_;
  std::uint32_t line_bytes_;
};

}  // namespace dlpsim
