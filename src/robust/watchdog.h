// Forward-progress watchdog for GpuSimulator.
//
// A mis-configured or fault-corrupted machine can livelock: warps spin on
// kReservationFail, the interconnect stops delivering, or every line of a
// set stays protected so no victim ever appears. Before this layer such a
// run silently burned the whole max_core_cycles budget and returned
// completed=0 with no explanation. The watchdog samples a cheap progress
// signature (GpuSimulator::ProgressCount) every `check_interval` core
// cycles; when the signature has not moved for `stall_cycles` while the
// machine is not Done(), it trips once, captures a StallDiagnostic naming
// the stalled resource, and Run() returns with RunError::kWatchdogStall.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "robust/error.h"
#include "sim/types.h"

namespace dlpsim {
class GpuSimulator;
}  // namespace dlpsim

namespace dlpsim::robust {

struct WatchdogConfig {
  Cycle check_interval = 1024;  // cycles between signature samples
  Cycle stall_cycles = 100000;  // no-progress window before tripping
};

/// Snapshot of everything a human needs to see why the machine stopped
/// moving, captured at trip time.
struct StallDiagnostic {
  struct SmState {
    std::uint32_t sm = 0;
    std::uint32_t warps_total = 0;
    std::uint32_t warps_finished = 0;
    std::uint32_t warps_wait_mem = 0;
    std::uint64_t mshr_entries = 0;
    std::uint64_t mshr_capacity = 0;
    std::uint64_t outgoing = 0;            // L1D miss-queue occupancy
    std::uint32_t fully_protected_sets = 0;  // no evictable victim
    std::uint64_t protected_lines = 0;       // occupied lines with PL > 0
    std::uint64_t reservation_fails = 0;
  };

  Cycle trip_cycle = 0;
  Cycle last_progress_cycle = 0;
  std::uint64_t progress_signature = 0;
  // Most recent DLPSIM_PROGRESS heartbeat line, copied in by GpuSimulator
  // at trip time (empty when no ProgressMeter was attached or it never
  // fired): how far the run got and how fast it was moving when it died.
  std::string last_heartbeat;
  std::vector<SmState> sms;
  // Aggregate queue depths at trip time.
  std::uint64_t icnt_in_flight = 0;   // injection + in-transit + delivery
  std::uint64_t mem_backlog = 0;      // partition retry/reply/DRAM queues
  std::uint64_t total_mshr = 0;
  std::uint64_t total_wait_mem = 0;
  std::uint32_t total_fully_protected_sets = 0;

  /// Best-effort name of the resource the machine is stuck on:
  /// "interconnect", "memory_partition", "mshr", "protected_sets" or
  /// "unknown". Heuristic, for humans and test assertions.
  std::string StalledResource() const;

  std::string ToText() const;
  void WriteJson(std::ostream& os) const;
};

/// Captures a StallDiagnostic from the current machine state (also usable
/// standalone, e.g. on the cycle-budget path).
StallDiagnostic Diagnose(const GpuSimulator& gpu, Cycle now,
                         Cycle last_progress, std::uint64_t signature);

class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig cfg = {}) : cfg_(cfg) {}

  bool Due(Cycle now) const { return now >= next_check_; }
  /// The first cycle on which Due holds.
  Cycle next_due() const { return next_check_; }

  /// Feeds one progress sample. Returns true exactly once: on the sample
  /// that first exceeds the no-progress window.
  bool Observe(std::uint64_t signature, Cycle now);

  bool tripped() const { return tripped_; }
  Cycle last_progress_cycle() const { return last_progress_; }
  std::uint64_t last_signature() const { return last_signature_; }
  const WatchdogConfig& config() const { return cfg_; }

  /// The diagnostic captured by GpuSimulator at trip time.
  const StallDiagnostic& diagnostic() const { return diagnostic_; }
  void set_diagnostic(StallDiagnostic d) { diagnostic_ = std::move(d); }

 private:
  WatchdogConfig cfg_;
  Cycle next_check_ = 0;
  Cycle last_progress_ = 0;
  std::uint64_t last_signature_ = 0;
  bool have_sample_ = false;
  bool tripped_ = false;
  StallDiagnostic diagnostic_;
};

}  // namespace dlpsim::robust
