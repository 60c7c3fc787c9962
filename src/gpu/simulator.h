// Whole-GPU wiring: 16 SM cores + crossbar + 12 memory partitions, driven
// by the three clock domains of Table 1 (core/icnt 650 MHz, mem 924 MHz).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/observer.h"
#include "gpu/metrics.h"
#include "icnt/crossbar.h"
#include "mem/partition.h"
#include "obs/timeline.h"
#include "robust/error.h"
#include "sim/clock.h"
#include "sim/config.h"
#include "sm/sm_core.h"
#include "workloads/program.h"

namespace dlpsim {

class TraceSink;

namespace obs {
class Profiler;
class ProgressMeter;
class Registry;
}  // namespace obs

namespace robust {
class FaultInjector;
class InvariantChecker;
class Watchdog;
}  // namespace robust

/// Exact counts of the engine's own work over a simulator's lifetime.
/// Deterministic, so a test can gate on them; never published to
/// obs::Registry, so the metrics dumps do not change with the engine.
struct EngineCounters {
  std::uint64_t steps = 0;            // clock edges stopped on to tick
  std::uint64_t edges_skipped = 0;    // domain edges passed over idle
  std::uint64_t core_ticks = 0;       // SmCore::TickCore calls
  std::uint64_t partition_ticks = 0;  // MemoryPartition::Tick calls
  std::uint64_t crossbar_ticks = 0;   // Crossbar::Tick calls
  std::uint64_t port_visits = 0;      // busy injection ports those visited
  std::uint64_t done_calls = 0;       // drain checks Run made
};

class GpuSimulator {
 public:
  /// Launches `warps_per_sm` warps of `program` on every core. The program
  /// must outlive the simulator. Throws ConfigError when `cfg` fails
  /// SimConfig::Validate() -- before any subsystem is built, so a bad
  /// configuration can never reach UB inside the tag arrays. Throws
  /// std::invalid_argument unless 1 <= warps_per_sm <= core.max_warps.
  GpuSimulator(const SimConfig& cfg, const Program* program,
               std::uint32_t warps_per_sm);
  ~GpuSimulator();  // out of line: unique_ptr to fwd-declared checker

  /// Attaches one observer to every SM's L1D. NOTE: reuse-distance
  /// profiling must use one observer per SM (see analysis/per_sm_profiler.h)
  /// or per-set counters interleave across cores; a shared observer is
  /// only appropriate for aggregate counting.
  void AttachObserver(AccessObserver* observer);

  /// Attaches one event-trace sink to every SM's L1D (and its policy),
  /// tagging each core's events with its SM id. Tracing is purely
  /// observational: attaching a sink never changes simulation results.
  /// Pass nullptr to detach. The sink must outlive the simulator runs.
  void SetTraceSink(TraceSink* sink);

  /// Attaches a timeline sampler: every `sampler->interval()` core
  /// cycles (and once at the end of Run) the cumulative Metrics and a
  /// PolicySnapshot are recorded. Pass nullptr to detach.
  void SetTimeline(TimelineSampler* sampler);

  /// Attaches a phase profiler (obs/) to the hot loop and to every SM's
  /// L1D: Run/Step wrap each clock domain's ticks, the drain check and
  /// timeline snapshots in wall-time spans, opened only on edges where
  /// that work is done. Purely observational; pass nullptr to detach (the
  /// default costs one branch per span).
  void SetProfiler(obs::Profiler* profiler);

  /// Attaches a progress heartbeat meter, sampled on the core clock edge
  /// like the timeline. Pass nullptr to detach. On a watchdog trip the
  /// meter's last emitted line is copied into the StallDiagnostic.
  void SetProgress(obs::ProgressMeter* progress) { progress_ = progress; }

  /// Aggregated protection state across every SM's L1D right now.
  PolicySnapshot SnapshotPolicy() const;

  /// Runs until every core drains (or the max_core_cycles cap) and
  /// returns aggregated metrics. As it returns, publishes the run into
  /// obs::Registry::Global() (PublishMetrics). Call it once per
  /// simulator: the component counters are lifetime totals, so a second
  /// Run would publish the first run's work again.
  Metrics Run();

  /// Adds this simulator's component counters to `registry`: cache
  /// accesses, fills and MSHR occupancy, icnt deliveries, DRAM reads and
  /// writes, and partition replies; plus PL decrements, PD recomputes
  /// and VTA hits when the L1D policy is Global-Protection or DLP.
  void PublishMetrics(obs::Registry& registry) const;

  /// Single-step variant for tests. Step advances to the next core clock
  /// edge, through every due edge of the other domains before it, and
  /// then SyncCores, so every core's counters are exact afterwards.
  void Step();
  bool Done() const;    // all cores drained, network and memory idle

  /// The engine's work so far: steps, skipped edges, ticks and port
  /// visits.
  EngineCounters engine_counters() const;

  Metrics Collect() const;

  // --- resilience hooks (robust/) ---

  /// Attaches a fault injector; its due events are applied on the core
  /// clock edge. Pass nullptr to detach. Must outlive the runs.
  void SetFaultInjector(robust::FaultInjector* injector) {
    faults_ = injector;
  }

  /// Attaches a forward-progress watchdog, sampled on its check interval.
  /// A trip captures a StallDiagnostic into the watchdog and ends Run()
  /// with RunError::kWatchdogStall. Pass nullptr to detach.
  void SetWatchdog(robust::Watchdog* watchdog) { watchdog_ = watchdog; }

  /// Attaches an invariant checker (overrides the env-constructed one).
  void SetInvariantChecker(robust::InvariantChecker* checker) {
    checker_ = checker;
  }

  /// Why the last Run() stopped (kNone while running / after a clean
  /// drain; kCycleBudget when max_core_cycles expired; kWatchdogStall
  /// when an attached watchdog tripped).
  robust::RunError run_error() const { return run_error_; }

  /// Monotone count of completed architectural work: committed and issued
  /// instructions, cache fills/bypasses/stores, delivered packets, served
  /// memory requests. Constant across cycles exactly when the machine
  /// made no forward progress (retried reservation failures and burned
  /// issue slots do NOT count). The watchdog's progress signature.
  std::uint64_t ProgressCount() const;

  std::vector<SmCore>& cores() { return cores_; }
  const std::vector<SmCore>& cores() const { return cores_; }
  Crossbar& icnt() { return icnt_; }
  const Crossbar& icnt() const { return icnt_; }
  std::vector<MemoryPartition>& partitions() { return partitions_; }
  const std::vector<MemoryPartition>& partitions() const {
    return partitions_;
  }
  Cycle core_cycles() const { return clocks_.cycles(core_domain_); }
  Cycle mem_cycles() const { return clocks_.cycles(mem_domain_); }

 private:
  /// Moves the clocks to the next edge on which a component or hook is
  /// due, at core cycle `core_limit` at the latest, and ticks the due
  /// components of each domain firing there. Cores not due skip their
  /// tick, so their issue counters may lag until SyncCores.
  void Advance(Cycle core_limit);
  /// One core clock edge: due faults, due cores, then the hooks.
  void TickCores(Cycle now);
  /// The timeline, progress, checker and watchdog samples due at `now`.
  void RunHooks(Cycle now);
  /// One memory clock edge: the due partitions.
  void TickPartitions(Cycle now);
  /// Fills due_ with the indices of the `due` entries at or below `now`,
  /// in ascending order, and returns how many; `*rest_min` gets the
  /// smallest entry of the others.
  std::size_t DueSet(const std::vector<Cycle>& due, Cycle now,
                     Cycle* rest_min);
  /// The earliest core cycle on which an attached hook (fault plan,
  /// timeline, progress meter, checker, watchdog) is due.
  Cycle NextHookCycle() const;
  /// Done(), asked only once every core has finished: before that it is
  /// false, and SmCore::Finished is sticky.
  bool DrainCheck();
  /// Applies every core's skipped cycles through the current core cycle
  /// (SmCore::CatchUp). Anything that reads core state mid-run calls it
  /// first.
  void SyncCores();

  SimConfig cfg_;
  std::vector<SmCore> cores_;
  Crossbar icnt_;
  std::vector<MemoryPartition> partitions_;
  // NextDue of each core (in core cycles) and partition (in memory
  // cycles), as of its last tick. A packet landing in a delivery queue
  // lowers its destination's entry to 0 (the next edge), and a fault
  // refreshes every entry. An entry at or below an edge's cycle makes the
  // component due there.
  std::vector<Cycle> core_due_;
  std::vector<Cycle> part_due_;
  Cycle core_due_min_ = 0;  // the smallest core_due_ entry
  Cycle part_due_min_ = 0;  // the smallest part_due_ entry
  Cycle hook_due_ = 0;      // NextHookCycle() as of this step
  std::vector<std::uint32_t> due_;  // scratch: the due set of one edge
  std::vector<Cycle> domain_due_;   // scratch: per-domain due cycles
  std::uint32_t finished_cores_ = 0;
  EngineCounters counters_;
  ClockDomainSet clocks_;
  std::uint32_t core_domain_ = 0;
  std::uint32_t icnt_domain_ = 0;
  std::uint32_t mem_domain_ = 0;
  TimelineSampler* timeline_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::ProgressMeter* progress_ = nullptr;
  // Resilience layer (all optional; every hook costs one null check when
  // detached, preserving bit-identical results).
  robust::FaultInjector* faults_ = nullptr;
  robust::Watchdog* watchdog_ = nullptr;
  robust::InvariantChecker* checker_ = nullptr;
  std::unique_ptr<robust::InvariantChecker> owned_checker_;  // env-enabled
  robust::RunError run_error_ = robust::RunError::kNone;
};

}  // namespace dlpsim
