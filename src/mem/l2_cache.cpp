#include "mem/l2_cache.h"

#include <cassert>

namespace dlpsim {

L2Cache::L2Cache(const L2Config& cfg)
    : cfg_(cfg),
      tags_(cfg.geom),
      pending_(cfg.mshr_entries, cfg.mshr_max_merged) {}

L2Cache::Result L2Cache::AccessRead(Addr block, const IcntPacket& waiter) {
  const std::uint32_t set = tags_.SetOfBlock(block);
  const std::uint32_t way = tags_.Probe(set, block);

  if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
    ++stats_.accesses;
    ++stats_.loads;
    ++stats_.load_hits;
    tags_.Touch(set, way);
    return Result::kHit;
  }

  // In flight already? Merge (bounded by the per-entry merge limit).
  const std::size_t merged = pending_.TargetCount(block);
  if (merged > 0) {
    if (merged >= cfg_.mshr_max_merged) {
      ++stats_.reservation_fails;
      return Result::kStall;
    }
    ++stats_.accesses;
    ++stats_.loads;
    ++stats_.load_misses;
    ++stats_.mshr_merges;
    pending_.Merge(block, waiter);
    return Result::kMissMerged;
  }

  if (pending_.Full()) {
    ++stats_.reservation_fails;
    return Result::kStall;
  }

  ++stats_.accesses;
  ++stats_.loads;
  ++stats_.load_misses;
  ++stats_.misses_issued;
  pending_.Allocate(block, waiter);
  return Result::kMissIssued;
}

L2Cache::Result L2Cache::AccessWrite(Addr block) {
  ++stats_.accesses;
  ++stats_.stores;
  const std::uint32_t set = tags_.SetOfBlock(block);
  const std::uint32_t way = tags_.Probe(set, block);
  if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
    ++stats_.store_hits;
    tags_.At(set, way).state = LineState::kModified;
    tags_.Touch(set, way);
    return Result::kHit;
  }
  // Write no-allocate: forward to DRAM.
  return Result::kMissIssued;
}

void L2Cache::Fill(Addr block, std::vector<IcntPacket>& waiters) {
  assert(pending_.HasEntry(block) && "L2 fill without a pending fetch");
  pending_.Retire(block, waiters);
  ++stats_.fills;

  // Allocate on fill: displace the LRU line (never RESERVED under this
  // policy, so a victim always exists).
  const std::uint32_t set = tags_.SetOfBlock(block);
  if (tags_.Probe(set, block) == kInvalidIndex) {
    const std::uint32_t way =
        tags_.LruWayWhere(set, [](const CacheLine&) { return true; });
    assert(way != kInvalidIndex);
    const CacheLine previous = tags_.Reserve(set, way, block, 0);
    tags_.Fill(set, block);
    if (IsFilled(previous.state)) {
      ++stats_.evictions;
      if (previous.state == LineState::kModified) {
        ++stats_.writebacks;
        writebacks_.push_back(previous.block);
      }
    }
  }
}

void L2Cache::TakeWritebacks(std::vector<Addr>& out) {
  out.insert(out.end(), writebacks_.begin(), writebacks_.end());
  writebacks_.clear();
}

}  // namespace dlpsim
