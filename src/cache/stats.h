// Counter block for one cache instance.
#pragma once

#include <cstdint>

namespace dlpsim {

struct CacheStats {
  std::uint64_t accesses = 0;       // all queries that reached the cache
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t load_misses = 0;    // includes merged and bypassed loads
  std::uint64_t store_hits = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t misses_issued = 0;  // new MSHR entry -> one icnt request
  std::uint64_t bypasses = 0;       // requests sent around the cache
  std::uint64_t reservation_fails = 0;  // stall-retry cycles
  std::uint64_t evictions = 0;      // filled lines displaced by Reserve
  std::uint64_t writebacks = 0;     // MODIFIED evictions -> icnt data
  std::uint64_t fills = 0;
  std::uint64_t store_invalidates = 0;  // write-evict policy only

  /// Traffic *into* the cache that was actually serviced (paper Fig. 11a
  /// counts accesses that enter the L1D, i.e. everything except bypassed
  /// and stalled retries).
  std::uint64_t serviced() const { return accesses - bypasses; }

  double load_hit_rate() const {
    const std::uint64_t total = load_hits + load_misses;
    return total == 0 ? 0.0 : static_cast<double>(load_hits) / total;
  }
};

}  // namespace dlpsim
