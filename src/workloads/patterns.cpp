#include "workloads/patterns.h"

#include <sstream>
#include <stdexcept>

namespace dlpsim {

AccessPattern::AccessPattern(Addr base, std::uint32_t lanes_per_line,
                             std::uint32_t warp_size)
    : base_(base), lanes_per_line_(lanes_per_line), warp_size_(warp_size) {
  if (lanes_per_line == 0) {
    throw std::invalid_argument("AccessPattern: lanes_per_line must be >= 1");
  }
}

// ---------------------------------------------------------------------------
// StreamingPattern
// ---------------------------------------------------------------------------

StreamingPattern::StreamingPattern(Addr base, std::uint32_t lanes_per_line,
                                   std::uint32_t warp_size,
                                   std::uint64_t iters_hint)
    : AccessPattern(base, lanes_per_line, warp_size),
      lines_per_warp_((iters_hint + 1) * groups()) {}

Addr StreamingPattern::LineIndex(std::uint64_t warp, std::uint64_t iter,
                                 std::uint32_t group) const {
  return warp * lines_per_warp_ + iter * groups() + group;
}

std::string StreamingPattern::Describe() const {
  std::ostringstream os;
  os << "streaming(groups=" << groups() << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// PrivateCyclicPattern
// ---------------------------------------------------------------------------

PrivateCyclicPattern::PrivateCyclicPattern(Addr base,
                                           std::uint32_t lanes_per_line,
                                           std::uint32_t warp_size,
                                           std::uint64_t ws_lines)
    : AccessPattern(base, lanes_per_line, warp_size),
      ws_lines_(ws_lines == 0 ? 1 : ws_lines) {}

Addr PrivateCyclicPattern::LineIndex(std::uint64_t warp, std::uint64_t iter,
                                     std::uint32_t group) const {
  const std::uint64_t seq = iter * groups() + group;
  return warp * ws_lines_ + (seq % ws_lines_);
}

std::string PrivateCyclicPattern::Describe() const {
  std::ostringstream os;
  os << "private_cyclic(ws=" << ws_lines_ << " lines)";
  return os.str();
}

// ---------------------------------------------------------------------------
// SharedTilePattern
// ---------------------------------------------------------------------------

SharedTilePattern::SharedTilePattern(Addr base, std::uint32_t lanes_per_line,
                                     std::uint32_t warp_size,
                                     std::uint64_t tile_lines,
                                     std::uint32_t share_degree)
    : AccessPattern(base, lanes_per_line, warp_size),
      tile_lines_(tile_lines == 0 ? 1 : tile_lines),
      share_degree_(share_degree) {}

Addr SharedTilePattern::LineIndex(std::uint64_t warp, std::uint64_t iter,
                                  std::uint32_t group) const {
  const std::uint64_t tile = share_degree_ == 0 ? 0 : warp / share_degree_;
  const std::uint64_t seq = iter * groups() + group;
  return tile * tile_lines_ + (seq % tile_lines_);
}

std::string SharedTilePattern::Describe() const {
  std::ostringstream os;
  os << "shared_tile(tile=" << tile_lines_ << " lines, share="
     << (share_degree_ == 0 ? std::string("all")
                            : std::to_string(share_degree_))
     << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// IndirectPattern
// ---------------------------------------------------------------------------

IndirectPattern::IndirectPattern(Addr base, std::uint32_t lanes_per_line,
                                 std::uint32_t warp_size,
                                 std::uint64_t universe_lines, double zipf_s,
                                 std::uint64_t seed)
    : AccessPattern(base, lanes_per_line, warp_size),
      universe_lines_(universe_lines == 0 ? 1 : universe_lines),
      seed_(seed),
      zipf_(universe_lines_, zipf_s) {}

Addr IndirectPattern::LineIndex(std::uint64_t warp, std::uint64_t iter,
                                std::uint32_t group) const {
  const std::uint64_t h =
      HashMix(seed_, (warp << 34) ^ (iter << 8) ^ group);
  if (zipf_.s() <= 0.0) return h % universe_lines_;
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return zipf_.Sample(u);
}

std::string IndirectPattern::Describe() const {
  std::ostringstream os;
  os << "indirect(universe=" << universe_lines_ << " lines, zipf=" << zipf_.s()
     << ")";
  return os.str();
}

}  // namespace dlpsim
