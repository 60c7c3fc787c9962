#include "cache/tag_array.h"

#include <bit>
#include <cassert>

namespace dlpsim {

namespace {
std::uint32_t Log2Exact(std::uint32_t v) {
  assert(v != 0 && (v & (v - 1)) == 0 && "must be a power of two");
  return static_cast<std::uint32_t>(std::countr_zero(v));
}
}  // namespace

TagArray::TagArray(const CacheGeometry& geom)
    : geom_(geom),
      set_mask_(geom.sets - 1),
      set_bits_(Log2Exact(geom.sets)),
      lines_(static_cast<std::size_t>(geom.sets) * geom.ways) {}

std::uint32_t TagArray::SetOfBlock(Addr block) const {
  if (geom_.index == IndexFunction::kLinear) {
    return static_cast<std::uint32_t>(block) & set_mask_;
  }
  // Hash index (Table 1): xor-fold three slices of the block address so
  // that power-of-two strides spread over all sets.
  const Addr folded = block ^ (block >> set_bits_) ^ (block >> (2 * set_bits_));
  return static_cast<std::uint32_t>(folded) & set_mask_;
}

std::uint32_t TagArray::Probe(std::uint32_t set, Addr block) const {
  auto view = SetView(set);
  for (std::uint32_t w = 0; w < view.size(); ++w) {
    if (IsOccupied(view[w].state) && view[w].block == block) return w;
  }
  return kInvalidIndex;
}

void TagArray::Touch(std::uint32_t set, std::uint32_t way) {
  At(set, way).last_use = ++use_clock_;
}

CacheLine TagArray::Reserve(std::uint32_t set, std::uint32_t way, Addr block,
                            Pc pc) {
  CacheLine& line = At(set, way);
  CacheLine previous = line;
  line.block = block;
  line.state = LineState::kReserved;
  line.last_use = ++use_clock_;
  line.src_pc = pc;
  line.insn_id = 0;
  // Lifecycle reset on (re)allocation, not the Fig. 9 update flow: a
  // RESERVED line always starts unprotected; only core/ policies ever
  // assign a nonzero PL.
  line.protected_life = 0;  // NOLINT(dlp-i1)
  return previous;
}

bool TagArray::Fill(std::uint32_t set, Addr block) {
  const std::uint32_t way = Probe(set, block);
  if (way == kInvalidIndex) return false;
  CacheLine& line = At(set, way);
  if (line.state != LineState::kReserved) return false;
  line.state = LineState::kValid;
  return true;
}

CacheLine TagArray::Invalidate(std::uint32_t set, std::uint32_t way) {
  CacheLine& line = At(set, way);
  CacheLine previous = line;
  line = CacheLine{};
  return previous;
}

std::span<CacheLine> TagArray::SetView(std::uint32_t set) {
  return {&lines_[static_cast<std::size_t>(set) * geom_.ways], geom_.ways};
}

std::span<const CacheLine> TagArray::SetView(std::uint32_t set) const {
  return {&lines_[static_cast<std::size_t>(set) * geom_.ways], geom_.ways};
}

CacheLine& TagArray::At(std::uint32_t set, std::uint32_t way) {
  assert(set < geom_.sets && way < geom_.ways);
  return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
}

const CacheLine& TagArray::At(std::uint32_t set, std::uint32_t way) const {
  assert(set < geom_.sets && way < geom_.ways);
  return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
}

}  // namespace dlpsim
