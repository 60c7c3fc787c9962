// The L1D cache front end: tag/data array + MSHR + miss queue + the
// selected protection policy, exposing the GPGPU-Sim-style access API
// used by the SM's LD/ST unit.
//
// Access outcomes mirror the hardware behaviours the paper leans on:
//  - kHit           : data returned this cycle (plus hit latency)
//  - kMissIssued    : line reserved, MSHR allocated, request enqueued
//  - kMissMerged    : folded into an in-flight MSHR entry
//  - kBypassed      : sent to the interconnect around the cache
//  - kReservationFail: nothing could be done; the LD/ST unit must retry
//                     next cycle, blocking the memory pipeline behind it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/mshr.h"
#include "cache/observer.h"
#include "cache/stats.h"
#include "cache/tag_array.h"
#include "core/policies.h"
#include "obs/trace_event.h"
#include "sim/config.h"
#include "sim/ring.h"
#include "sim/types.h"

namespace dlpsim {

class TraceSink;

namespace obs {
class Profiler;
}  // namespace obs

enum class AccessResult : std::uint8_t {
  kHit,
  kMissIssued,
  kMissMerged,
  kBypassed,
  kStoreSent,        // store committed (write-through or dirtied in place)
  kReservationFail,
};

const char* ToString(AccessResult r);

/// One L1D transaction from the LD/ST unit (already coalesced to a line).
struct MemAccess {
  Addr addr = 0;
  AccessType type = AccessType::kLoad;
  Pc pc = 0;
  MshrToken token = 0;  // wake handle for loads
};

/// A request leaving the L1D towards the interconnect.
struct L1DOutgoing {
  Addr block = 0;        // line-aligned block index (addr / line_bytes)
  bool write = false;
  bool no_fill = false;  // bypassed load: response must not fill the TDA
  Pc pc = 0;
  MshrToken token = 0;   // valid when no_fill (bypassed load)
  std::uint32_t payload_bytes = 0;  // data carried (writes); 0 for reads
};

/// A response arriving from the interconnect.
struct L1DResponse {
  Addr block = 0;
  bool no_fill = false;
  MshrToken token = 0;  // valid when no_fill
};

class L1DCache {
 public:
  explicit L1DCache(const L1DConfig& cfg);

  /// Processes one transaction. On kReservationFail the caller must retry
  /// the same transaction next cycle; only stats().reservation_fails
  /// changed. A repeat of the last failed access with no mutator run in
  /// between (every completed access, Fill, PopOutgoing, Reset, the fault
  /// hooks, mutable_tda() and mutable_policy() count) fails again without
  /// probing: nothing its outcome depends on has changed.
  AccessResult Access(const MemAccess& access, Cycle now);

  /// Whether an access of `type` to line `block` (addr / line_bytes)
  /// would repeat the last failure without probing, blackouts aside.
  bool RepeatsLastFailure(Addr block, AccessType type) const {
    return failed_epoch_ == epoch_ && failed_block_ == block &&
           failed_type_ == type;
  }

  /// Handles a returning response; appends woken tokens to `woken`.
  void Fill(const L1DResponse& response, Cycle now,
            std::vector<MshrToken>& woken);

  // --- outgoing (miss/bypass/write) queue, drained by the SM each cycle ---
  bool HasOutgoing() const { return !outgoing_.empty(); }
  const L1DOutgoing& PeekOutgoing() const { return outgoing_.front(); }
  L1DOutgoing PopOutgoing();

  /// Clears all transient state between kernels (lines, MSHRs, policy).
  void Reset();

  // --- introspection ---
  const CacheStats& stats() const { return stats_; }
  /// mshr_occupancy()[n] counts the miss allocations that left n MSHR
  /// entries in use (size mshr_entries + 1). Lifetime, like stats().
  const std::vector<std::uint64_t>& mshr_occupancy() const {
    return mshr_occupancy_;
  }
  const TagArray& tda() const { return tda_; }
  const MshrTable& mshr() const { return mshr_; }
  const ProtectionPolicy& policy() const { return *policy_; }
  const L1DConfig& config() const { return cfg_; }
  std::uint32_t line_bytes() const { return cfg_.geom.line_bytes; }

  /// Mutable policy access for the fault injector (robust/) only.
  ProtectionPolicy& mutable_policy() {
    ++epoch_;
    return *policy_;
  }
  /// Mutable tag-array access for white-box tests (e.g. planting the
  /// corruptions the robust/ invariant checker must catch). Never used
  /// on the simulation path. Counts as a mutator when called, so make
  /// every change through the reference before the next Access.
  TagArray& mutable_tda() {
    ++epoch_;
    return tda_;
  }
  std::size_t outgoing_size() const { return outgoing_.size(); }

  // --- fault-injection hooks (robust/FaultInjector; never called on the
  // normal simulation path) ---

  /// Corrupts the protected-life field of (set, way) by XOR-ing `bit`
  /// into it (clamped to the policy's 4-bit field). No-op on unoccupied
  /// lines: PL only exists on occupied lines.
  void InjectProtectedLifeFlip(std::uint32_t set, std::uint32_t way,
                               std::uint32_t bit);

  /// Models a transient controller fault: every access before `until`
  /// (core cycles) fails with kReservationFail, exercising the LD/ST
  /// unit's retry path without touching cache state.
  void InjectReservationBlackout(Cycle until) {
    ++epoch_;
    fault_blackout_until_ = until;
  }

  /// Optional pre-policy observer (reuse-distance profiling).
  void SetObserver(AccessObserver* observer) { observer_ = observer; }

  /// Optional event tracing (obs/). `sm_id` tags every emitted event so
  /// multi-core traces attribute records to their SM; the policy shares
  /// the sink. Pass nullptr to detach. When no sink is attached every
  /// hook costs one pointer comparison.
  void SetTraceSink(TraceSink* sink, std::uint32_t sm_id = 0);
  TraceSink* trace_sink() const { return trace_; }

  /// Optional phase profiler (obs/). Spans wrap each access and its
  /// policy bookkeeping; nullptr (the default) keeps the hot path at one
  /// predictable branch per access. Purely observational wall-time
  /// telemetry -- attaching never changes simulation results.
  void SetProfiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  AccessResult AccessLoad(const MemAccess& access, std::uint32_t set,
                          Addr block, Cycle now);
  AccessResult AccessStore(const MemAccess& access, std::uint32_t set,
                           Addr block, Cycle now);

  /// Commits the bookkeeping every completed access shares, before the
  /// policy acts on it: the observer call with the pre-policy outcome
  /// (`hit` = block filled in the TDA), access counter, set query (PL
  /// decay) and sampling tick.
  void CommitQuery(const MemAccess& access, std::uint32_t set, Addr block,
                   bool hit, Cycle now);

  bool OutgoingFull() const { return outgoing_.size() >= cfg_.miss_queue_entries; }
  void PushOutgoing(L1DOutgoing req);

  void TraceBypass(std::uint32_t set, Addr block, Pc pc, BypassReason reason);

  /// Evicts (set, way) for reuse; updates stats/VTA/writeback traffic.
  void EvictFor(std::uint32_t set, std::uint32_t way, Addr new_block, Pc pc);

  L1DConfig cfg_;
  TagArray tda_;
  MshrTable mshr_;
  std::unique_ptr<ProtectionPolicy> policy_;
  Ring<L1DOutgoing> outgoing_;
  CacheStats stats_;
  std::vector<std::uint64_t> mshr_occupancy_;
  AccessObserver* observer_ = nullptr;
  TraceSink* trace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  std::uint16_t sm_ = 0;
  Cycle fault_blackout_until_ = 0;  // robust/: accesses fail before this
  // Failed-access memo. Every mutator bumps epoch_; the last access that
  // failed by probing is remembered with the epoch it failed in.
  std::uint64_t epoch_ = 0;
  std::uint64_t failed_epoch_ = ~std::uint64_t{0};
  Addr failed_block_ = 0;
  AccessType failed_type_ = AccessType::kLoad;
};

}  // namespace dlpsim
