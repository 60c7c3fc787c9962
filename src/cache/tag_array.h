// Set-associative tag/data array with pluggable set indexing and LRU
// bookkeeping. Victim *selection* lives in the protection policies
// (core/policies.h); the tag array only offers mechanics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/line.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

class TagArray {
 public:
  explicit TagArray(const CacheGeometry& geom);

  // --- address mapping ---
  Addr BlockOf(Addr addr) const { return addr / geom_.line_bytes; }
  std::uint32_t SetOf(Addr addr) const { return SetOfBlock(BlockOf(addr)); }
  std::uint32_t SetOfBlock(Addr block) const;

  // --- lookup ---
  /// Way index of the line holding `block` (any occupied state), or
  /// kInvalidIndex. Does not touch LRU state.
  std::uint32_t Probe(std::uint32_t set, Addr block) const;

  /// Marks (set, way) as most recently used.
  void Touch(std::uint32_t set, std::uint32_t way);

  // --- mutation ---
  /// Allocates `block` into (set, way) in RESERVED state, returning the
  /// previous contents (for eviction bookkeeping by the caller).
  CacheLine Reserve(std::uint32_t set, std::uint32_t way, Addr block, Pc pc);

  /// Completes the fill of a RESERVED line. Returns false if the line no
  /// longer holds `block` (cannot happen in-sim; guards misuse in tests).
  bool Fill(std::uint32_t set, Addr block);

  /// Invalidates a line (write-evict stores). Returns previous contents.
  CacheLine Invalidate(std::uint32_t set, std::uint32_t way);

  // --- views ---
  std::span<CacheLine> SetView(std::uint32_t set);
  std::span<const CacheLine> SetView(std::uint32_t set) const;
  CacheLine& At(std::uint32_t set, std::uint32_t way);
  const CacheLine& At(std::uint32_t set, std::uint32_t way) const;

  /// LRU way among those satisfying `pred` (and not RESERVED); INVALID
  /// lines win immediately. Returns kInvalidIndex if none qualifies.
  template <typename Pred>
  std::uint32_t LruWayWhere(std::uint32_t set, Pred pred) const {
    std::uint32_t best = kInvalidIndex;
    std::uint64_t best_use = ~0ull;
    auto view = SetView(set);
    for (std::uint32_t w = 0; w < view.size(); ++w) {
      const CacheLine& line = view[w];
      if (line.state == LineState::kReserved) continue;
      if (line.state == LineState::kInvalid) return w;
      if (!pred(line)) continue;
      if (line.last_use < best_use) {
        best_use = line.last_use;
        best = w;
      }
    }
    return best;
  }

  const CacheGeometry& geom() const { return geom_; }

 private:
  CacheGeometry geom_;
  std::uint32_t set_mask_;
  std::uint32_t set_bits_;
  std::vector<CacheLine> lines_;  // sets * ways, row-major by set
  std::uint64_t use_clock_ = 0;   // monotone LRU timestamp source
};

}  // namespace dlpsim
