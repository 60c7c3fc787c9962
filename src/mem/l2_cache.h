// One L2 slice (per memory partition): set-associative, LRU, write-back,
// allocate-on-fill, with MSHR-style merging of concurrent read misses.
//
// Unlike the L1D (allocate-on-miss, the paper's contention point), the L2
// allocates lines when the DRAM fill returns. This means a slice never
// holds RESERVED lines, so its sets cannot be exhausted by in-flight
// fetches -- only the MSHR bounds memory-level parallelism. The L2 slices
// reuse the generic TagArray substrate; they are not managed by DLP (the
// paper modifies only the L1D).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/mshr.h"
#include "cache/stats.h"
#include "cache/tag_array.h"
#include "icnt/crossbar.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

class L2Cache {
 public:
  explicit L2Cache(const L2Config& cfg);

  enum class Result : std::uint8_t {
    kHit,         // reply can be scheduled after cfg.latency
    kMissIssued,  // caller must fetch from DRAM
    kMissMerged,  // already being fetched; reply joins the entry
    kStall,       // MSHR full / merge limit; retry next cycle
  };

  /// A read for `block` on behalf of `waiter` (the original core packet).
  Result AccessRead(Addr block, const IcntPacket& waiter);

  /// A write of `block` (write-through from L1 or L1 writeback).
  /// Returns kHit when absorbed by the slice (line dirtied), kMissIssued
  /// when it must be forwarded to DRAM (no-allocate).
  Result AccessWrite(Addr block);

  /// DRAM returned `block`: allocate the line (possibly displacing a
  /// dirty victim -> TakeWritebacks) and append all merged waiters to
  /// `waiters`, in merge order.
  void Fill(Addr block, std::vector<IcntPacket>& waiters);

  /// Appends the dirty lines displaced since the last call to `out` (the
  /// partition turns them into DRAM writes).
  void TakeWritebacks(std::vector<Addr>& out);

  const CacheStats& stats() const { return stats_; }
  std::size_t pending_fetches() const { return pending_.size(); }
  const TagArray& tags() const { return tags_; }
  const L2Config& config() const { return cfg_; }
  /// The MSHR: one entry per block being fetched, its waiters merged.
  const MshrTableOf<IcntPacket>& mshr() const { return pending_; }
  /// White-box tests only: plants the corruption the checker must catch.
  MshrTableOf<IcntPacket>& mutable_mshr() { return pending_; }

 private:
  L2Config cfg_;
  TagArray tags_;
  MshrTableOf<IcntPacket> pending_;
  std::vector<Addr> writebacks_;
  CacheStats stats_;
};

}  // namespace dlpsim
