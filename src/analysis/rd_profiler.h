// Reuse-distance profiler (paper §3.1, Figs. 2/3/4/7).
//
// The paper defines the RD of an access as the number of memory accesses
// to the same cache set since the previous access to the same line
// (Fig. 2: sequence Addr0, Addr1, Addr2, Addr0 gives Addr0 an RD of 3,
// i.e. the per-set access-counter delta). RDs therefore depend only on
// the access stream and the set mapping -- not on associativity or the
// management policy -- which is why one profiling run serves every cache
// size (paper §3.1).
//
// Distances are bucketed like Fig. 3: 1-4, 5-8, 9-64, >= 65.
//
// The same history yields Fig. 4's reuse-data miss rate: a re-reference
// that missed the TDA is a reuse miss, and first touches are the
// compulsory accesses Fig. 4 excludes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "cache/observer.h"
#include "sim/types.h"

namespace dlpsim {

inline constexpr std::array<const char*, 4> kRdBucketNames = {
    "rd 1~4", "rd 5~8", "rd 9~64", "rd >65"};

/// Bucket index for a reuse distance (Fig. 3's ranges).
std::uint32_t RdBucket(std::uint64_t rd);

struct RddHistogram {
  std::array<std::uint64_t, 4> buckets{};
  std::uint64_t total() const {
    return buckets[0] + buckets[1] + buckets[2] + buckets[3];
  }
  double fraction(std::uint32_t b) const {
    const std::uint64_t t = total();
    return t == 0 ? 0.0 : static_cast<double>(buckets[b]) / t;
  }
  void Add(std::uint64_t rd) { ++buckets[RdBucket(rd)]; }
  void Merge(const RddHistogram& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
  }
};

class RdProfiler : public AccessObserver {
 public:
  explicit RdProfiler(std::uint32_t sets) : per_set_(sets) {}

  void OnAccess(std::uint32_t set, Addr block, Pc pc, AccessType type,
                bool hit) override;

  std::uint32_t sets() const {
    return static_cast<std::uint32_t>(per_set_.size());
  }

  /// Global distribution over all re-references (Fig. 3).
  const RddHistogram& global() const { return global_; }

  /// Per-memory-instruction distributions (Fig. 7), keyed by PC of the
  /// re-referencing access, ordered for stable reports.
  std::map<Pc, RddHistogram> per_pc() const {
    return {per_pc_.begin(), per_pc_.end()};
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t re_references() const { return global_.total(); }
  /// Fig. 4: re-references that missed the TDA, and first touches.
  std::uint64_t reuse_misses() const { return reuse_misses_; }
  std::uint64_t compulsory_accesses() const {
    return accesses_ - re_references();
  }
  double reuse_miss_rate() const {
    const std::uint64_t ra = re_references();
    return ra == 0 ? 0.0 : static_cast<double>(reuse_misses_) / ra;
  }

  void Reset();

 private:
  // `last` is the set's counter at the block's previous access. Set
  // counters start at 1, so last == 0 marks an empty slot.
  struct Slot {
    Addr block = 0;
    std::uint64_t last = 0;
  };

  // Open addressing with linear probing; the power-of-two table doubles
  // at half load.
  struct SetTrace {
    std::uint64_t counter = 0;  // accesses to this set so far
    std::size_t used = 0;
    unsigned shift = 60;  // 64 - log2(slots.size())
    std::vector<Slot> slots = std::vector<Slot>(16);

    Slot& Find(Addr block);
    void Grow();
  };

  RddHistogram& PcHistogram(Pc pc);

  std::vector<SetTrace> per_set_;
  RddHistogram global_;
  // A kernel has about a dozen memory PCs: a linear scan beats a map.
  std::vector<std::pair<Pc, RddHistogram>> per_pc_;
  std::uint64_t accesses_ = 0;
  std::uint64_t reuse_misses_ = 0;
};

}  // namespace dlpsim
