#include "harness.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/per_sm_profiler.h"
#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "robust/fault.h"
#include "robust/watchdog.h"
#include "serve/content_cache.h"
#include "sim/env.h"
#include "workloads/registry.h"

namespace dlpsim::bench {

namespace {
std::string CacheDir() { return env::Str("DLPSIM_CACHE_DIR", ".dlpsim_cache"); }

bool TraceEnabled() { return env::Flag("DLPSIM_TRACE"); }

const char* FaultSpec() {
  const char* spec = env::Raw("DLPSIM_FAULTS");
  if (spec == nullptr || *spec == '\0' || std::string(spec) == "0") {
    return nullptr;
  }
  return spec;
}

bool FaultsEnabled() { return FaultSpec() != nullptr; }

// Tracing implies no result cache: a cache hit would skip the simulation
// and produce no trace. Fault injection also disables it both ways --
// faulty results must never poison the shared cache, and a clean cached
// result must never stand in for the faulty run under test.
bool CacheEnabled() {
  return !env::IsSet("DLPSIM_NOCACHE") && !TraceEnabled() && !FaultsEnabled();
}

std::string TraceOutDir() {
  return env::Str("DLPSIM_TRACE_OUT", "dlpsim_trace");
}

// Timing artifacts default under the build tree (DLPSIM_DEFAULT_TIMING_DIR
// is injected by bench/CMakeLists.txt) so ad-hoc bench runs never litter
// the source tree; DLPSIM_TIMING_DIR still overrides for CI artifacts.
std::string TimingDir() {
#ifdef DLPSIM_DEFAULT_TIMING_DIR
  return env::Str("DLPSIM_TIMING_DIR", DLPSIM_DEFAULT_TIMING_DIR);
#else
  return env::Str("DLPSIM_TIMING_DIR", ".");
#endif
}

// Grid cells that failed in RunGrid (process-wide, like Timing());
// benches turn this into a non-zero exit after printing every table they
// could compute.
std::atomic<std::size_t> g_failed_cells{0};

// DLPSIM_PROGRESS: 0 = off, "1"/any truthy value = heartbeat every 1M
// core cycles, >= 2 = explicit interval in core cycles.
std::uint64_t ProgressInterval() {
  if (!env::Flag("DLPSIM_PROGRESS")) return 0;
  const std::uint64_t v = env::U64("DLPSIM_PROGRESS", 1);
  return v >= 2 ? v : 1'000'000;
}

bool ProfileEnabled() { return env::Flag("DLPSIM_PROFILE"); }

bool MetricsDumpEnabled() { return env::Flag("DLPSIM_METRICS"); }
}  // namespace

double Scale() {
  double scale = 1.0;
  std::string err;
  if (const char* text = env::Raw("DLPSIM_SCALE");
      text != nullptr && !ParseScale(text, &scale, &err)) {
    throw ScaleError("DLPSIM_SCALE: " + err);
  }
  return scale;
}

const std::vector<std::string>& ConfigNames() {
  static const std::vector<std::string> kNames = {"base", "sb",   "gp",
                                                  "dlp",  "32kb", "64kb"};
  return kNames;
}

std::vector<std::string> AllAppAbbrs() {
  std::vector<std::string> abbrs;
  for (const AppInfo& app : AllApps()) abbrs.push_back(app.abbr);
  return abbrs;
}

SimConfig ConfigFor(const std::string& name) {
  SimConfig cfg;
  if (name == "base") {
    cfg = SimConfig::Baseline16KB();
  } else if (name == "sb") {
    cfg = SimConfig::WithPolicy(PolicyKind::kStallBypass);
  } else if (name == "gp") {
    cfg = SimConfig::WithPolicy(PolicyKind::kGlobalProtection);
  } else if (name == "dlp") {
    cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  } else if (name == "32kb") {
    cfg = SimConfig::Cache32KB();
  } else if (name == "64kb") {
    cfg = SimConfig::Cache64KB();
  } else {
    throw std::out_of_range("unknown config: " + name);
  }
  // Fail fast with the structured issue list if a preset is ever edited
  // into an invalid state (also the gate for locally patched presets).
  cfg.ValidateOrThrow();
  return cfg;
}

std::string ProfileResult::ToText() const {
  std::ostringstream os;
  os << "global " << global.buckets[0] << ' ' << global.buckets[1] << ' '
     << global.buckets[2] << ' ' << global.buckets[3] << '\n';
  os << "reuse_accesses " << reuse_accesses << '\n';
  os << "reuse_misses " << reuse_misses << '\n';
  os << "compulsory " << compulsory << '\n';
  for (const auto& [pc, hist] : per_pc) {
    os << "pc " << pc << ' ' << hist.buckets[0] << ' ' << hist.buckets[1]
       << ' ' << hist.buckets[2] << ' ' << hist.buckets[3] << '\n';
  }
  return os.str();
}

ProfileResult ProfileResult::FromText(const std::string& text, bool* ok) {
  ProfileResult r;
  bool saw_global = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "global") {
      ls >> r.global.buckets[0] >> r.global.buckets[1] >>
          r.global.buckets[2] >> r.global.buckets[3];
      saw_global = true;
    } else if (key == "reuse_accesses") {
      ls >> r.reuse_accesses;
    } else if (key == "reuse_misses") {
      ls >> r.reuse_misses;
    } else if (key == "compulsory") {
      ls >> r.compulsory;
    } else if (key == "pc") {
      Pc pc = 0;
      RddHistogram h;
      ls >> pc >> h.buckets[0] >> h.buckets[1] >> h.buckets[2] >>
          h.buckets[3];
      r.per_pc[pc] = h;
    }
  }
  if (ok != nullptr) *ok = saw_global;
  return r;
}

std::string CellKey(const std::string& abbr, const std::string& config,
                    double scale) {
  return serve::ContentKey(CanonicalText(ConfigFor(config)),
                           serve::WorkloadTraceRef(abbr, scale));
}

std::string ToPayload(const RunResult& r) {
  return r.metrics.ToText() + "---\n" + r.profile.ToText();
}

bool FromPayload(const std::string& payload, RunResult* out) {
  const auto sep = payload.find("---\n");
  if (sep == std::string::npos) return false;
  bool ok_m = false;
  bool ok_p = false;
  RunResult r;
  r.metrics = Metrics::FromText(payload.substr(0, sep), &ok_m);
  r.profile = ProfileResult::FromText(payload.substr(sep + 4), &ok_p);
  if (!ok_m || !ok_p) return false;
  *out = std::move(r);
  return true;
}

namespace {

/// Writes the JSON report, Chrome trace and timeline CSV for one traced
/// run into DLPSIM_TRACE_OUT. Failures are reported on stderr and never
/// affect the run's results.
void ExportTrace(const std::string& abbr, const std::string& config,
                 double scale, const SimConfig& cfg, const Metrics& metrics,
                 const TimelineSampler& timeline, const TraceSink& sink) {
  namespace fs = std::filesystem;
  const fs::path dir = TraceOutDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "[trace] cannot create " << dir << ": " << ec.message()
              << '\n';
    return;
  }
  const std::string stem = abbr + "_" + config;
  const RunReportInfo info{.app = abbr, .config = config, .scale = scale};

  const fs::path report = dir / (stem + ".report.json");
  {
    std::ofstream os(report);
    WriteJsonReport(os, info, cfg, metrics, &timeline, &sink);
  }
  const fs::path chrome = dir / (stem + ".trace.json");
  {
    std::ofstream os(chrome);
    WriteChromeTrace(os, sink, &timeline, cfg.num_cores);
  }
  const fs::path csv = dir / (stem + ".timeline.csv");
  {
    std::ofstream os(csv);
    WriteTimelineCsv(os, timeline);
  }
  std::cerr << "[trace] " << stem << ": " << sink.size() << " events ("
            << sink.dropped() << " dropped) -> " << report.string() << ", "
            << chrome.string() << ", " << csv.string() << '\n';
}

/// Writes the fault-injection artifact (and, if the watchdog tripped, its
/// diagnostic) into DLPSIM_TIMING_DIR. Best-effort: export failures are
/// reported on stderr and never change run results.
void ExportFaultArtifacts(const std::string& abbr, const std::string& config,
                          const robust::FaultInjector& injector,
                          const robust::Watchdog* watchdog) {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string stem = abbr + "_" + config;
  const fs::path faults = dir / (stem + "_faults.json");
  {
    std::ofstream os(faults);
    if (!os) {
      std::cerr << "[faults] cannot write " << faults << '\n';
      return;
    }
    injector.WriteJson(os);
  }
  std::cerr << "[faults] " << stem << ": applied " << injector.applied_total()
            << "/" << injector.plan().events.size() << " -> "
            << faults.string() << '\n';
  if (watchdog != nullptr && watchdog->tripped()) {
    const fs::path diag = dir / (stem + "_watchdog.json");
    std::ofstream os(diag);
    if (os) watchdog->diagnostic().WriteJson(os);
  }
}

/// Writes one profiled cell's phase breakdown into DLPSIM_TIMING_DIR in
/// every supported shape: JSON (machine), collapsed stacks (flamegraph)
/// and a Chrome trace of the retained spans. Best-effort.
void ExportProfile(const std::string& abbr, const std::string& config,
                   const obs::Profiler& profiler) {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string stem = abbr + "_" + config + "_profile";
  {
    std::ofstream os(dir / (stem + ".json"));
    if (!os) {
      std::cerr << "[profile] cannot write " << (dir / (stem + ".json"))
                << '\n';
      return;
    }
    profiler.WriteJson(os);
  }
  {
    std::ofstream os(dir / (stem + ".collapsed"));
    profiler.WriteCollapsed(os);
  }
  {
    std::ofstream os(dir / (stem + ".trace.json"));
    WriteProfileChromeTrace(os, profiler, abbr + "/" + config);
  }
  std::cerr << "[profile] " << abbr << '/' << config << ": "
            << profiler.events().size() << " spans ("
            << profiler.dropped_events() << " dropped) -> "
            << (dir / stem).string() << ".{json,collapsed,trace.json}"
            << '\n';
}

}  // namespace

RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale) {
  RunOverrides ov;
  if (const char* spec = FaultSpec()) ov.fault_spec = spec;
  ov.watchdog_cycles = env::U64("DLPSIM_WATCHDOG", 0);
  return SimulateUncached(abbr, config, scale, ov);
}

RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale, const RunOverrides& overrides) {
  const SimConfig cfg = ConfigFor(config);
  Workload wl = MakeWorkload(abbr, scale);

  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  PerSmProfiler profiler(cfg.num_cores, cfg.l1d.geom.sets);
  profiler.AttachTo(gpu);

  // Trace buffers exist only under DLPSIM_TRACE: the default ring of
  // 2^20 events alone is 56 MiB.
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<TimelineSampler> timeline;
  if (TraceEnabled()) {
    sink = std::make_unique<TraceSink>(
        env::U64("DLPSIM_TRACE_EVENTS", 1u << 20));
    timeline = std::make_unique<TimelineSampler>(
        env::U64("DLPSIM_TRACE_INTERVAL", 5000));
    gpu.SetTraceSink(sink.get());
    gpu.SetTimeline(timeline.get());
  }

  // Observability hooks. The phase profiler is per-cell (the Profiler is
  // single-threaded by design), so profiling stays safe at any job
  // count; neither hook changes simulation results.
  std::unique_ptr<obs::Profiler> phase_profiler;
  if (ProfileEnabled()) {
    phase_profiler = std::make_unique<obs::Profiler>();
    gpu.SetProfiler(phase_profiler.get());
  }
  std::unique_ptr<obs::ProgressMeter> progress;
  if (const std::uint64_t interval = ProgressInterval(); interval > 0) {
    progress = std::make_unique<obs::ProgressMeter>(interval,
                                                    abbr + "/" + config);
    gpu.SetProgress(progress.get());
  }

  // Resilience hooks (both off by default, so un-faulted runs stay
  // byte-identical to earlier releases). DLPSIM_FAULTS selects a seeded
  // fault plan; DLPSIM_WATCHDOG=<cycles> arms the forward-progress
  // watchdog with that stall threshold.
  std::unique_ptr<robust::FaultInjector> injector;
  if (!overrides.fault_spec.empty()) {
    robust::FaultPlan plan;
    std::string err;
    if (!robust::FaultPlan::Parse(overrides.fault_spec, &plan, &err)) {
      throw std::invalid_argument("DLPSIM_FAULTS: " + err);
    }
    injector = std::make_unique<robust::FaultInjector>(plan);
    gpu.SetFaultInjector(injector.get());
  }
  std::unique_ptr<robust::Watchdog> watchdog;
  if (const std::uint64_t stall = overrides.watchdog_cycles; stall > 0) {
    watchdog = std::make_unique<robust::Watchdog>(
        robust::WatchdogConfig{/*check_interval=*/1024,
                               /*stall_cycles=*/stall});
    gpu.SetWatchdog(watchdog.get());
  }

  RunResult result;
  result.metrics = gpu.Run();

  if (injector != nullptr) {
    ExportFaultArtifacts(abbr, config, *injector, watchdog.get());
  }
  if (watchdog != nullptr && watchdog->tripped()) {
    std::cerr << watchdog->diagnostic().ToText();
    throw robust::RunErrorException(
        robust::RunError::kWatchdogStall,
        "watchdog: " + abbr + "/" + config + " made no forward progress for " +
        std::to_string(watchdog->config().stall_cycles) +
        " cycles (stalled resource: " +
        watchdog->diagnostic().StalledResource() + ")");
  }
  result.profile.global = profiler.GlobalRdd();
  result.profile.per_pc = profiler.PerPcRdd();
  result.profile.reuse_accesses = profiler.reuse_accesses();
  result.profile.reuse_misses = profiler.reuse_misses();
  result.profile.compulsory = profiler.compulsory_accesses();

  if (sink != nullptr) {
    ExportTrace(abbr, config, scale, cfg, result.metrics, *timeline, *sink);
  }
  if (phase_profiler != nullptr) {
    ExportProfile(abbr, config, *phase_profiler);
  }
  return result;
}

exec::TimingLog& Timing() {
  static exec::TimingLog log;
  return log;
}

// Constructing the scope starts the global log's wall clock (the
// function-local static would otherwise first be touched after the
// first simulation already finished) and reads the scale once, so a bad
// DLPSIM_SCALE stops the bench before its first cell and the destructor
// never throws.
TimingScope::TimingScope(std::string name) : name_(std::move(name)) {
  try {
    scale_ = Scale();
  } catch (const ScaleError& e) {
    std::cerr << name_ << ": " << e.what() << '\n';
    std::exit(2);
  }
  Timing();
}

TimingScope::~TimingScope() {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path = dir / (name_ + "_timing.json");
  std::ofstream os(path);
  if (!os) {
    std::cerr << "[timing] cannot write " << path << '\n';
    return;
  }
  // Mirror RunGrid's worker-count resolution so the report names the
  // job count actually used (tracing forces serial).
  const std::size_t jobs = TraceEnabled() ? 1 : exec::DefaultJobs();
  Timing().WriteJson(os, name_, jobs, scale_);

  // DLPSIM_METRICS: dump the global registry next to the timing report.
  // The registry holds only merge-order-independent integers, so this
  // dump is byte-identical at any DLPSIM_JOBS.
  if (MetricsDumpEnabled()) {
    const fs::path prom = dir / (name_ + "_metrics.prom");
    {
      std::ofstream mos(prom);
      if (mos) {
        obs::Registry::Global().WriteText(mos);
      } else {
        std::cerr << "[metrics] cannot write " << prom << '\n';
      }
    }
    const fs::path json = dir / (name_ + "_metrics.json");
    std::ofstream mos(json);
    if (mos) {
      obs::Registry::Global().WriteJson(mos);
    } else {
      std::cerr << "[metrics] cannot write " << json << '\n';
    }
  }
}

namespace {

/// Loads the cell from disk or simulates it (recording timing), then
/// stores it back. Exactly one thread per cell runs this (see Run).
RunResult LoadOrSimulate(const std::string& abbr, const std::string& config,
                         double scale) {
  const serve::ContentCache cache(CacheEnabled() ? CacheDir() : "");
  const std::string key = cache.enabled() ? CellKey(abbr, config, scale) : "";

  RunResult cached;
  if (const auto payload = cache.Load(key);
      payload && FromPayload(*payload, &cached)) {
    exec::TimingCell cell;
    cell.app = abbr;
    cell.config = config;
    cell.cached = true;
    Timing().Record(std::move(cell));
    return cached;
  }

  const exec::Stopwatch cell_clock;
  RunResult r = SimulateUncached(abbr, config, scale);
  exec::TimingCell cell;
  cell.app = abbr;
  cell.config = config;
  cell.seconds = cell_clock.Seconds();
  Timing().Record(std::move(cell));

  cache.Store(key, ToPayload(r));
  return r;
}

/// In-process memo: single-flight per cell, but (unlike call_once) NOT
/// failure-sticky. A failed flight releases the cell so a later caller
/// can attempt it again; only successes are memoized (RunGrid tombstones
/// the cells that failed in its grid). Callers that were waiting on the
/// failing flight see that flight's exception. std::map gives reference
/// stability, so the flight runs outside the registry lock. Cells are
/// keyed by (app, config name, scale): names are unambiguous inside one
/// binary, and the scale compares exactly.
struct CellState {
  std::mutex mu;
  std::condition_variable cv;
  bool running = false;
  bool done = false;
  RunResult result;
  std::exception_ptr last_error;
  std::uint64_t error_seq = 0;  // bumped on every failed flight
};

using CellId = std::tuple<std::string, std::string, double>;

struct Memo {
  std::mutex mu;
  std::map<CellId, CellState> cells;
};

Memo& GlobalMemo() {
  static Memo memo;
  return memo;
}

}  // namespace

RunResult Run(const std::string& abbr, const std::string& config,
              double scale) {
  Memo& memo = GlobalMemo();
  CellState* cell = nullptr;
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    cell = &memo.cells[CellId{abbr, config, scale}];
  }

  std::unique_lock<std::mutex> lock(cell->mu);
  for (;;) {
    if (cell->done) return cell->result;
    if (!cell->running) break;
    // Another thread's flight is in progress: share its outcome rather
    // than queueing a duplicate simulation.
    const std::uint64_t seq = cell->error_seq;
    cell->cv.wait(lock,
                  [&] { return cell->done || cell->error_seq != seq; });
    if (cell->done) return cell->result;
    std::rethrow_exception(cell->last_error);
  }

  cell->running = true;
  lock.unlock();
  try {
    RunResult r = LoadOrSimulate(abbr, config, scale);
    lock.lock();
    cell->result = std::move(r);
    cell->done = true;
    cell->running = false;
    cell->cv.notify_all();
    return cell->result;
  } catch (...) {
    lock.lock();
    cell->last_error = std::current_exception();
    ++cell->error_seq;
    cell->running = false;
    cell->cv.notify_all();
    throw;
  }
}

RunResult Run(const std::string& abbr, const std::string& config) {
  return Run(abbr, config, Scale());
}

std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               double scale, std::size_t jobs) {
  if (jobs == 0) jobs = exec::DefaultJobs();
  // Each simulated run owns a private trace sink/timeline, so tracing is
  // safe at any job count; serial keeps the [trace] log and the export
  // order deterministic.
  if (TraceEnabled()) jobs = 1;
  const std::vector<exec::Job> grid = exec::Grid(apps, configs);

  // Resilient execution: a cell that throws (bad workload, watchdog trip,
  // fault-induced failure) is recorded as a structured failure instead of
  // aborting its siblings. Cells are deterministic, so it is not retried.
  // Its result slot stays value-initialized so tables keep their shape.
  exec::GridRun<RunResult> run = exec::TryRunJobs(
      grid, [scale](const exec::Job& j) { return Run(j.app, j.config, scale); },
      jobs);

  for (const exec::JobFailure& f : run.failures) {
    std::cerr << "[grid] FAILED " << f.job.app << '/' << f.job.config << ": "
              << f.error << '\n';
    exec::TimingCell cell;
    cell.app = f.job.app;
    cell.config = f.job.config;
    cell.failed = true;
    cell.error = f.error;
    Timing().Record(std::move(cell));

    // Tombstone the failed cell in the memo with the same
    // value-initialized result as run.results[f.index]: benches re-read
    // cells through Run() in their table loops, and without this the
    // non-sticky memo would re-simulate the known-bad cell and throw
    // mid-table. The failure is already on record (stderr, timing log,
    // FailedCells()).
    Memo& memo = GlobalMemo();
    CellState* state = nullptr;
    {
      std::lock_guard<std::mutex> reg(memo.mu);
      state = &memo.cells[CellId{f.job.app, f.job.config, scale}];
    }
    std::lock_guard<std::mutex> cl(state->mu);
    if (!state->done && !state->running) {
      state->result = RunResult{};
      state->done = true;
    }
  }
  g_failed_cells += run.failures.size();
  return std::move(run.results);
}

std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               std::size_t jobs) {
  return RunGrid(apps, configs, Scale(), jobs);
}

double Normalize(double value, double base) {
  return base == 0.0 ? 0.0 : value / base;
}

std::size_t FailedCells() { return g_failed_cells.load(); }

int ExitStatus() { return FailedCells() == 0 ? 0 : 1; }

}  // namespace dlpsim::bench
