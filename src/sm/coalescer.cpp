#include "sm/coalescer.h"

#include <algorithm>
#include <stdexcept>

namespace dlpsim {

Coalescer::Coalescer(std::uint32_t warp_size, std::uint32_t line_bytes)
    : warp_size_(warp_size), line_bytes_(line_bytes) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument(
        "Coalescer: line_bytes must be a power of two");
  }
}

void Coalescer::Transactions(const AccessPattern& pattern, std::uint64_t warp,
                             std::uint64_t iter,
                             std::vector<Addr>* lines) const {
  lines->clear();
  const Addr line_mask = ~Addr{line_bytes_ - 1u};
  const std::uint32_t lanes_per_line = pattern.lanes_per_line();
  std::uint32_t group = 0;
  for (std::uint32_t first = 0; first < warp_size_;
       first += lanes_per_line, ++group) {
    const Addr group_line = pattern.GroupLine(warp, iter, group);
    const std::uint32_t lanes = std::min(lanes_per_line, warp_size_ - first);
    for (std::uint32_t k = 0; k < lanes; ++k) {
      const Addr line = (group_line + k * std::uint64_t{kWordBytes}) &
                        line_mask;
      if (std::find(lines->begin(), lines->end(), line) == lines->end()) {
        lines->push_back(line);
      }
    }
  }
}

std::vector<Addr> Coalescer::TransactionsFromLanes(
    const std::vector<Addr>& lane_addrs) const {
  std::vector<Addr> lines;
  lines.reserve(8);
  for (Addr a : lane_addrs) {
    const Addr line = a / line_bytes_ * line_bytes_;
    if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace dlpsim
