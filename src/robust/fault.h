// Deterministic, seeded fault injection for the DLP side structures and
// the memory system.
//
// The paper's mechanism lives entirely in small SRAM tables (PDPT, VTA,
// per-line PL fields, §4.1-4.3); a reproduction must be able to show the
// policy *degrades gracefully* when those structures are corrupted rather
// than deadlocking or producing unbounded garbage. A FaultPlan is a fixed,
// seed-derived schedule of FaultEvents; the FaultInjector applies each
// event when the core clock reaches its cycle. Plans are pure functions of
// (seed, count, horizon, ...) so every faulty run is exactly repeatable.
//
// Fault model (all transient / state-corrupting, never structural):
//   kPdptPd       - overwrite one PDPT entry's protection distance
//   kPlField      - XOR a bit into one cached line's protected-life field
//   kVtaClear     - drop every VTA entry of one SM (tag SRAM clear)
//   kMshrBlackout - the L1D rejects every access for `stall` core cycles
//                   (controller fault; the LD/ST unit retries)
//   kIcntStall    - the crossbar freezes for `stall` icnt cycles
//   kMemStall     - one partition freezes for `stall` memory cycles
//
// MSHR corruption is deliberately modelled as a blackout rather than entry
// loss: dropping an entry would leak its wake tokens and hang the owning
// warp forever -- a simulator artifact, not the graceful-degradation
// behaviour under test.
//
// Enabled in the bench harness via DLPSIM_FAULTS (see FaultPlan::Parse).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.h"

namespace dlpsim {
class GpuSimulator;
}  // namespace dlpsim

namespace dlpsim::robust {

enum class FaultKind : std::uint8_t {
  kPdptPd,
  kPlField,
  kVtaClear,
  kMshrBlackout,
  kIcntStall,
  kMemStall,
};
inline constexpr std::uint32_t kNumFaultKinds = 6;

const char* ToString(FaultKind k);

/// Bitmask helpers for FaultPlan::kinds_mask.
inline constexpr std::uint32_t MaskOf(FaultKind k) {
  return 1u << static_cast<std::uint32_t>(k);
}
inline constexpr std::uint32_t kAllFaultKinds = (1u << kNumFaultKinds) - 1u;

/// One scheduled fault. `a`/`b` are kind-specific operands (entry index,
/// set/way, bit position...) drawn deterministically from the plan seed;
/// targets are resolved against the actual simulator dimensions at apply
/// time (modulo), so one plan is valid for any configuration.
struct FaultEvent {
  Cycle cycle = 0;        // core-domain cycle at/after which to apply
  FaultKind kind = FaultKind::kPdptPd;
  std::uint32_t target = 0;  // SM id (or partition id for kMemStall)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A complete, deterministic fault schedule.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::uint64_t stall_cycles = 2000;  // duration of blackout/stall faults
  std::vector<FaultEvent> events;     // sorted by cycle

  bool empty() const { return events.empty(); }

  /// Builds a plan of `count` events uniformly spread over core cycles
  /// [horizon/16, horizon), cycling round-robin through the kinds enabled
  /// in `kinds_mask` (so even small plans cover every enabled kind) with
  /// seed-derived targets/operands. Pure function of its arguments.
  static FaultPlan Random(std::uint64_t seed, std::uint32_t count,
                          Cycle horizon, std::uint64_t stall_cycles,
                          std::uint32_t kinds_mask = kAllFaultKinds);

  /// Parses a DLPSIM_FAULTS spec:
  ///   "1"                                   -> defaults (seed=1, count=32,
  ///                                            horizon=1M, stall=2000)
  ///   "seed=7,count=16,horizon=300000,stall=500,kinds=pdpt+pl+vta"
  /// Keys may appear in any order; kinds are joined with '+' from
  /// {pdpt, pl, vta, mshr, icnt, mem}. Returns false (with *error set)
  /// on an unknown key/kind or an unparsable number.
  static bool Parse(const std::string& spec, FaultPlan* out,
                    std::string* error);
};

/// Applies a FaultPlan against a running GpuSimulator. The simulator calls
/// HasDue/ApplyDue from its core-clock edge; when no event is due the cost
/// is one comparison.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  bool HasDue(Cycle now) const {
    return next_ < plan_.events.size() && plan_.events[next_].cycle <= now;
  }
  /// The first cycle on which HasDue holds; kNever once every event has
  /// been applied.
  Cycle next_due() const {
    return next_ < plan_.events.size() ? plan_.events[next_].cycle : kNever;
  }

  /// Applies every event scheduled at or before `now`.
  void ApplyDue(GpuSimulator& gpu, Cycle now);

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t applied_total() const { return applied_total_; }
  std::uint64_t applied(FaultKind k) const {
    return applied_[static_cast<std::size_t>(k)];
  }

  /// JSON report of the plan and what was actually applied (the fault
  /// artifact uploaded by the CI smoke job).
  void WriteJson(std::ostream& os) const;

 private:
  void Apply(GpuSimulator& gpu, const FaultEvent& ev, Cycle now);

  FaultPlan plan_;
  std::size_t next_ = 0;
  std::uint64_t applied_total_ = 0;
  std::uint64_t applied_[kNumFaultKinds] = {};
};

}  // namespace dlpsim::robust
