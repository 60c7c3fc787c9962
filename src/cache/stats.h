// Counter block for one cache instance.
#pragma once

#include <cstdint>
#include <span>

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

/// Name + member-pointer pair for one CacheStats counter, like
/// MetricsField: code that handles every counter loops over the table, so
/// a counter added later cannot be missed.
struct CacheStatsField {
  const char* name;
  std::uint64_t CacheStats::* member;
};

/// Every counter field of CacheStats, in declaration order.
inline std::span<const CacheStatsField> CacheStatsFields() {
  static constexpr CacheStatsField kFields[] = {
      {"accesses", &CacheStats::accesses},
      {"loads", &CacheStats::loads},
      {"stores", &CacheStats::stores},
      {"load_hits", &CacheStats::load_hits},
      {"load_misses", &CacheStats::load_misses},
      {"store_hits", &CacheStats::store_hits},
      {"mshr_merges", &CacheStats::mshr_merges},
      {"misses_issued", &CacheStats::misses_issued},
      {"bypasses", &CacheStats::bypasses},
      {"reservation_fails", &CacheStats::reservation_fails},
      {"evictions", &CacheStats::evictions},
      {"writebacks", &CacheStats::writebacks},
      {"fills", &CacheStats::fills},
      {"store_invalidates", &CacheStats::store_invalidates},
  };
  return kFields;
}

}  // namespace dlpsim
