// Shared run harness for the figure-reproduction benches.
//
// Every bench needs the same (app x configuration) simulation grid, so
// runs are memoized twice: in-process (thread-safe, single-flight -- two
// threads asking for the same cell never simulate it twice) and on disk
// in serve::ContentCache, under the content key and payload that
// dlpsim_server uses for the same request (CellKey, ToPayload). A preset
// edit keys old entries away, and a server pointed at DLPSIM_CACHE_DIR
// serves the bench's cells. The store publishes each entry atomically,
// so a killed or concurrent bench can never leave a partially written
// entry that parses as a bogus result.
//
// RunGrid() executes a whole (apps x configs) matrix through the
// src/exec/ parallel executor: each cell is an isolated, deterministic
// simulation scheduled on a fixed-size thread pool, and results come
// back in grid order. DLPSIM_JOBS=1 reproduces the serial path bit for
// bit; any other value produces byte-identical results (enforced by
// tests/exec/determinism_test.cpp).
//
// Each run also records reuse-distance and reuse-miss profiles so the
// motivation figures (3/4/7) come from the same simulations as the
// evaluation figures (10-13).
//
// Environment knobs:
//   DLPSIM_SCALE      - iteration scale factor (default 1.0), read with
//                       ParseScale; a value it refuses stops the bench
//                       with exit 2 before any cell runs
//   DLPSIM_JOBS       - worker threads for RunGrid (default: hardware
//                       concurrency; 1 = serial)
//   DLPSIM_CACHE_DIR  - result-cache directory (default ./.dlpsim_cache);
//                       the same entries as dlpsim_server --cache-dir
//   DLPSIM_NOCACHE    - set to disable the on-disk cache entirely
//   DLPSIM_TIMING_DIR - where TimingScope writes <bench>_timing.json
//                       (default ".")
//   DLPSIM_TRACE      - set to 1 to trace every simulated run: a JSON
//                       run report, a Chrome trace-event file (Perfetto /
//                       chrome://tracing) and a timeline CSV are written
//                       per (app, config). Implies DLPSIM_NOCACHE so
//                       every run actually simulates, and forces
//                       RunGrid to jobs=1 (each run owns a private sink
//                       either way; serial keeps the [trace] log and the
//                       export order deterministic). Tracing never
//                       changes simulation results or the printed tables.
//   DLPSIM_TRACE_OUT  - trace output directory (default ./dlpsim_trace)
//   DLPSIM_TRACE_EVENTS   - trace ring-buffer capacity (default 1048576)
//   DLPSIM_TRACE_INTERVAL - timeline sample interval in core cycles
//                           (default 5000)
//   DLPSIM_FAULTS     - fault-injection spec (see robust/fault.h), e.g.
//                       "1" for the default plan or
//                       "seed=7,count=16,horizon=300000,stall=500,
//                        kinds=pdpt+pl+vta". Implies DLPSIM_NOCACHE in
//                       both directions: faulty results are never stored
//                       and clean cached results are never served. The
//                       applied plan is written to
//                       DLPSIM_TIMING_DIR/<app>_<config>_faults.json.
//   DLPSIM_WATCHDOG   - arm the forward-progress watchdog with this
//                       no-progress threshold in core cycles (e.g.
//                       200000); a trip writes a diagnostic JSON next to
//                       the fault artifact, prints it to stderr and makes
//                       the cell fail with a typed error naming the
//                       stalled resource. Unset/0 = off.
//   DLPSIM_CHECK      - 1 = run the opt-in invariant checker every few
//                       thousand cycles (see robust/invariants.h);
//                       0 = force off even in DLPSIM_CHECKED builds.
//   DLPSIM_METRICS    - set to 1 to dump the global obs::Registry on
//                       TimingScope destruction: <bench>_metrics.prom
//                       (Prometheus text exposition) and
//                       <bench>_metrics.json into DLPSIM_TIMING_DIR.
//                       Every simulated cell publishes into it once, as
//                       its GpuSimulator::Run returns. Counters are
//                       integer-only and add-order independent, so the
//                       dump is byte-identical at any DLPSIM_JOBS
//                       (enforced by
//                       tests/bench/metrics_determinism_test.cpp).
//   DLPSIM_PROGRESS   - heartbeat while a cell simulates: "1" emits a
//                       [progress] line to stderr every 1M core cycles
//                       (cycle, accesses/sec, warps finished, ETA); a
//                       value >= 2 sets the interval in core cycles.
//                       The last line is copied into the watchdog's
//                       StallDiagnostic when a run stalls.
//   DLPSIM_PROFILE    - set to 1 to attach an obs::Profiler phase
//                       profiler to every simulated cell and write
//                       <app>_<config>_profile.{json,collapsed,
//                       trace.json} into DLPSIM_TIMING_DIR: per-phase
//                       call counts and self/total wall time, a
//                       flamegraph collapsed-stack file, and a Chrome
//                       trace of the retained spans. Wall-clock times
//                       never enter the deterministic metrics registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/rd_profiler.h"
#include "exec/timing.h"
#include "gpu/metrics.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim::bench {

/// Named simulator configurations used across the paper's figures.
///   base  - Table 1 baseline (16KB, LRU)
///   sb    - Stall-Bypass          gp   - Global-Protection
///   dlp   - DLP                   32kb - 8-way LRU
///   64kb  - 16-way LRU
const std::vector<std::string>& ConfigNames();
SimConfig ConfigFor(const std::string& name);

/// Abbreviations of every registered application, in registry order
/// (convenience for RunGrid warm-up calls).
std::vector<std::string> AllAppAbbrs();

struct ProfileResult {
  RddHistogram global;
  std::map<Pc, RddHistogram> per_pc;
  std::uint64_t reuse_accesses = 0;
  std::uint64_t reuse_misses = 0;
  std::uint64_t compulsory = 0;

  double reuse_miss_rate() const {
    return reuse_accesses == 0
               ? 0.0
               : static_cast<double>(reuse_misses) / reuse_accesses;
  }

  std::string ToText() const;
  static ProfileResult FromText(const std::string& text, bool* ok = nullptr);
};

struct RunResult {
  Metrics metrics;
  ProfileResult profile;
};

/// Runs (or loads from cache) app `abbr` under configuration `config`.
/// Thread-safe; concurrent callers asking for the same cell share one
/// simulation (single-flight).
RunResult Run(const std::string& abbr, const std::string& config);
RunResult Run(const std::string& abbr, const std::string& config,
              double scale);

/// Runs the whole (apps x configs) grid through the parallel executor
/// and returns results in app-major grid order: cell (a, c) at index
/// a * configs.size() + c. jobs == 0 resolves DLPSIM_JOBS (default:
/// hardware concurrency); DLPSIM_TRACE forces jobs = 1.
///
/// Resilient: a throwing cell is recorded as a failed cell in
/// <bench>_timing.json (and in FailedCells()) while its siblings run to
/// completion. Cells are deterministic, so each runs once. Failed cells'
/// result slots are value-initialized.
std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               std::size_t jobs = 0);
std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               double scale, std::size_t jobs);

/// Always simulates (no memo, no disk cache). The determinism tests use
/// this to compare thread-pool execution against the serial path.
RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale);

/// Per-run resilience overrides for callers that must not mutate the
/// process environment between runs (the dlpsim_server worker serves
/// many requests from one process; setenv there would race and leak
/// state across fault domains). Empty/zero fields mean "off" -- they do
/// NOT fall back to the DLPSIM_FAULTS / DLPSIM_WATCHDOG env knobs.
struct RunOverrides {
  std::string fault_spec;             // robust::FaultPlan spec; "" = none
  std::uint64_t watchdog_cycles = 0;  // stall threshold; 0 = off
};

/// SimulateUncached with explicit resilience hooks. A watchdog trip
/// throws robust::RunErrorException(kWatchdogStall, ...) so process
/// boundaries can forward the typed kind instead of string-matching.
RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale, const RunOverrides& overrides);

// --- result-cache entries (shared with tools/dlpsim_server) ---

/// serve::ContentCache key of one generated-workload cell:
/// serve::ContentKey(CanonicalText(ConfigFor(config)),
/// serve::WorkloadTraceRef(abbr, scale)) -- the key dlpsim_server uses
/// for the same request. Throws std::out_of_range on an unknown config.
std::string CellKey(const std::string& abbr, const std::string& config,
                    double scale);

/// Cache entry payload: Metrics::ToText() + "---\n" + ProfileResult::ToText().
std::string ToPayload(const RunResult& r);

/// Parses a ToPayload text; false when either block fails to parse.
bool FromPayload(const std::string& payload, RunResult* out);

// --- wall-clock telemetry ---

/// Global per-process timing log; Run/SimulateUncached record one cell
/// per simulation (cached loads are recorded with cached=true).
exec::TimingLog& Timing();

/// RAII: writes DLPSIM_TIMING_DIR/<name>_timing.json on destruction with
/// per-cell sim seconds, total wall time and the job count used. Every
/// bench opens one first: the constructor reads Scale() and, for a
/// DLPSIM_SCALE that ParseScale refuses, prints the "bad scale" message
/// and exits the process with status 2.
class TimingScope {
 public:
  explicit TimingScope(std::string name);
  ~TimingScope();

  TimingScope(const TimingScope&) = delete;
  TimingScope& operator=(const TimingScope&) = delete;

 private:
  std::string name_;
  double scale_ = 1.0;
};

/// Iteration scale from DLPSIM_SCALE, read with ParseScale: 1.0 when
/// unset; throws ScaleError for a value ParseScale refuses.
double Scale();

/// Normalizes `value` to the same app's metric under `base` (helper for
/// "normalized to baseline" figure rows); returns 0 when base is 0.
double Normalize(double value, double base);

/// Number of grid cells that failed across every RunGrid call in this
/// process.
std::size_t FailedCells();

/// Process exit code for benches: 0 when every grid cell succeeded, 1
/// otherwise. Benches call this AFTER printing every table they could
/// compute, so partial results are never discarded by one bad cell.
int ExitStatus();

}  // namespace dlpsim::bench
