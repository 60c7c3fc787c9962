// dlpsim_bench: pinned-workload simulator-throughput benchmark.
//
// Runs a fixed (apps x configs) grid of uncached, serial simulations and
// reports how fast the *simulator* is: simulated core cycles per wall
// second, simulated L1D accesses per wall second, an aggregate per-phase
// breakdown (from a separate profiled pass so profiling overhead never
// contaminates the timed pass), a trace-frontend ingest phase (packed vs
// text decode rates over an in-memory recording of the first grid cell)
// and peak RSS. The result is written as BENCH_<id>.json; committed
// snapshots of that file at the repo root form the project's performance
// trajectory, one point per PR.
//
// Regression gate: --baseline BENCH_<m>.json --max-regress <pct> compares
// this run's cycles/sec and accesses/sec against the baseline document
// and exits 1 when either rate drops by more than <pct> percent. The
// default tolerance is generous because committed baselines come from a
// different machine than CI runners; the gate exists to catch order-of-
// magnitude slowdowns, not scheduler jitter.
//
// Usage:
//   dlpsim_bench [--out FILE] [--baseline FILE] [--max-regress PCT]
//                [--repeat N] [--scale S] [--bench-id N]
//                [--apps A,B,...] [--configs C,D,...]
//
// Workload results are ignored on purpose (determinism is enforced by the
// test suite); only wall time is measured, best-of-N over --repeat runs.
// All timing goes through exec::Stopwatch (the sanctioned clock) and the
// tool reads no environment knobs, so a pinned command line is the whole
// measurement recipe.

#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/timing.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "sim/parse.h"
#include "trace/recorder.h"
#include "trace/source.h"
#include "trace/text.h"
#include "trace/writer.h"
#include "workloads/registry.h"

namespace {

using dlpsim::GpuSimulator;
using dlpsim::JsonValue;
using dlpsim::JsonWriter;
using dlpsim::MakeWorkload;
using dlpsim::Metrics;
using dlpsim::ParseJson;
using dlpsim::SimConfig;
using dlpsim::Workload;

struct Options {
  std::string out;                 // default: BENCH_<bench_id>.json
  std::string baseline;            // empty = no comparison
  double max_regress_pct = 60.0;   // allowed rate drop vs baseline
  int repeat = 3;                  // timed passes; best (fastest) wins
  double scale = 0.05;             // workload scale factor
  int bench_id = 9;                // stamp for the default output name
  std::vector<std::string> apps = {"BFS", "BP", "HS", "SRAD"};
  std::vector<std::string> configs = {"base", "dlp"};
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void Usage(std::ostream& os) {
  os << "usage: dlpsim_bench [--out FILE] [--baseline FILE]\n"
        "                    [--max-regress PCT] [--repeat N] [--scale S]\n"
        "                    [--bench-id N] [--apps A,B,..] "
        "[--configs C,D,..]\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  const auto bad = [](const char* flag, const char* want, const char* v) {
    std::cerr << "dlpsim_bench: " << flag << " needs " << want << ", got '"
              << v << "'\n";
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dlpsim_bench: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(std::cout);
      std::exit(0);
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opt->out = v;
    } else if (arg == "--baseline") {
      const char* v = next("--baseline");
      if (v == nullptr) return false;
      opt->baseline = v;
    } else if (arg == "--max-regress") {
      const char* v = next("--max-regress");
      if (v == nullptr) return false;
      if (!dlpsim::ParsePositiveDouble(v, &opt->max_regress_pct)) {
        return bad("--max-regress", "a positive number", v);
      }
    } else if (arg == "--repeat") {
      const char* v = next("--repeat");
      if (v == nullptr) return false;
      if (!dlpsim::ParseUnsigned(v, &opt->repeat)) {
        return bad("--repeat", "a whole number", v);
      }
      if (opt->repeat < 1) opt->repeat = 1;
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return false;
      if (!dlpsim::ParseScale(v, &opt->scale)) {
        return bad("--scale", "a scale MakeWorkload builds", v);
      }
    } else if (arg == "--bench-id") {
      const char* v = next("--bench-id");
      if (v == nullptr) return false;
      if (!dlpsim::ParseUnsigned(v, &opt->bench_id)) {
        return bad("--bench-id", "a whole number", v);
      }
    } else if (arg == "--apps") {
      const char* v = next("--apps");
      if (v == nullptr) return false;
      opt->apps = SplitCsv(v);
    } else if (arg == "--configs") {
      const char* v = next("--configs");
      if (v == nullptr) return false;
      opt->configs = SplitCsv(v);
    } else {
      std::cerr << "dlpsim_bench: unknown flag " << arg << '\n';
      Usage(std::cerr);
      return false;
    }
  }
  if (opt->out.empty()) {
    opt->out = "BENCH_" + std::to_string(opt->bench_id) + ".json";
  }
  if (opt->apps.empty() || opt->configs.empty()) {
    std::cerr << "dlpsim_bench: --apps and --configs must be non-empty\n";
    return false;
  }
  return true;
}

struct CellResult {
  std::string app;
  std::string config;
  std::uint64_t core_cycles = 0;
  std::uint64_t accesses = 0;
};

/// One serial pass over the pinned grid. `profiler` may be null (timed
/// passes); when set, every simulator shares it so phase stats aggregate
/// across the whole grid.
std::vector<CellResult> RunGridOnce(const Options& opt,
                                    dlpsim::obs::Profiler* profiler) {
  std::vector<CellResult> cells;
  for (const std::string& app : opt.apps) {
    for (const std::string& config : opt.configs) {
      const SimConfig cfg = dlpsim::bench::ConfigFor(config);
      Workload wl = MakeWorkload(app, opt.scale);
      GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
      if (profiler != nullptr) gpu.SetProfiler(profiler);
      const Metrics m = gpu.Run();
      CellResult cell;
      cell.app = app;
      cell.config = config;
      cell.core_cycles = m.core_cycles;
      cell.accesses = m.l1d_accesses;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Packed-ingest throughput phase: records the first grid cell's access
/// stream once, serializes it to the packed and text forms in memory,
/// then times draining each form through its TraceSource (best of
/// --repeat). This measures the trace frontend the replayer and the
/// serve layer sit on, with no disk in the loop.
struct IngestResult {
  std::uint64_t records = 0;
  std::uint64_t packed_bytes = 0;
  std::uint64_t text_bytes = 0;
  double packed_best_wall = 0.0;
  double text_best_wall = 0.0;
};

IngestResult RunIngestPhase(const Options& opt) {
  IngestResult r;
  std::vector<dlpsim::TraceAccess> records;
  {
    Workload wl = MakeWorkload(opt.apps.front(), opt.scale);
    GpuSimulator gpu(dlpsim::bench::ConfigFor(opt.configs.front()),
                     wl.program.get(), wl.warps_per_sm);
    dlpsim::trace::TraceRecorder rec(&records);
    gpu.AttachObserver(&rec);
    gpu.Run();
  }
  r.records = records.size();

  std::ostringstream packed_os;
  if (!dlpsim::trace::WritePackedTrace(packed_os, records)) return r;
  const std::string packed = packed_os.str();
  const std::string text = dlpsim::trace::CanonicalText(records);
  r.packed_bytes = packed.size();
  r.text_bytes = text.size();

  auto drain = [&records](dlpsim::trace::TraceSource& src) {
    std::vector<dlpsim::TraceAccess> out;
    dlpsim::TraceParseError err;
    if (!dlpsim::trace::ReadAllRecords(src, &out, &err) ||
        out.size() != records.size()) {
      std::cerr << "dlpsim_bench: ingest round trip mismatch: "
                << err.ToString() << '\n';
      std::exit(2);
    }
  };
  for (int rep = 0; rep < opt.repeat; ++rep) {
    {
      std::istringstream is(packed);
      dlpsim::trace::PackedTraceSource src(is);
      const dlpsim::exec::Stopwatch clock;
      drain(src);
      const double s = clock.Seconds();
      if (r.packed_best_wall == 0.0 || s < r.packed_best_wall) {
        r.packed_best_wall = s;
      }
    }
    {
      std::istringstream is(text);
      dlpsim::trace::TextTraceSource src(is);
      const dlpsim::exec::Stopwatch clock;
      drain(src);
      const double s = clock.Seconds();
      if (r.text_best_wall == 0.0 || s < r.text_best_wall) {
        r.text_best_wall = s;
      }
    }
  }
  return r;
}

std::uint64_t PeakRssKb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KB on Linux
}

void WriteBenchJson(std::ostream& os, const Options& opt,
                    const std::vector<CellResult>& cells,
                    std::uint64_t total_cycles, std::uint64_t total_accesses,
                    double best_wall, const std::vector<double>& walls,
                    const dlpsim::obs::Profiler& profiler,
                    double profile_wall, const IngestResult& ingest) {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema", "dlpsim-bench-v1");
  w.KV("bench_id", std::int64_t{opt.bench_id});
  w.KV("scale", opt.scale);
  w.KV("repeat", std::int64_t{opt.repeat});

  w.Key("apps").BeginArray();
  for (const std::string& a : opt.apps) w.Value(a);
  w.EndArray();
  w.Key("configs").BeginArray();
  for (const std::string& c : opt.configs) w.Value(c);
  w.EndArray();

  w.Key("cells").BeginArray();
  for (const CellResult& c : cells) {
    w.BeginObject();
    w.KV("app", c.app);
    w.KV("config", c.config);
    w.KV("core_cycles", c.core_cycles);
    w.KV("l1d_accesses", c.accesses);
    w.EndObject();
  }
  w.EndArray();

  w.Key("totals").BeginObject();
  w.KV("core_cycles", total_cycles);
  w.KV("l1d_accesses", total_accesses);
  w.EndObject();

  w.Key("wall_seconds").BeginArray();
  for (const double s : walls) w.Value(s);
  w.EndArray();
  w.KV("wall_seconds_best", best_wall);
  w.KV("cycles_per_second",
       best_wall > 0.0 ? static_cast<double>(total_cycles) / best_wall : 0.0);
  w.KV("accesses_per_second",
       best_wall > 0.0 ? static_cast<double>(total_accesses) / best_wall
                       : 0.0);

  // Phase breakdown from the separate profiled pass (its own wall time;
  // never the one the rates above are computed from).
  w.KV("profile_wall_seconds", profile_wall);
  w.Key("phases").BeginArray();
  for (const auto& [phase, stat] : profiler.PhaseStats()) {
    w.BeginObject();
    w.KV("phase", dlpsim::obs::ToString(phase));
    w.KV("calls", stat.calls);
    w.KV("total_seconds", stat.total_seconds);
    w.KV("self_seconds", stat.self_seconds);
    w.EndObject();
  }
  w.EndArray();

  // Trace-frontend ingest rates (packed vs text, in-memory, best-of-N).
  w.Key("trace_ingest").BeginObject();
  w.KV("records", ingest.records);
  w.KV("packed_bytes", ingest.packed_bytes);
  w.KV("text_bytes", ingest.text_bytes);
  w.KV("packed_wall_seconds_best", ingest.packed_best_wall);
  w.KV("text_wall_seconds_best", ingest.text_best_wall);
  w.KV("packed_records_per_second",
       ingest.packed_best_wall > 0.0
           ? static_cast<double>(ingest.records) / ingest.packed_best_wall
           : 0.0);
  w.KV("text_records_per_second",
       ingest.text_best_wall > 0.0
           ? static_cast<double>(ingest.records) / ingest.text_best_wall
           : 0.0);
  w.EndObject();

  w.KV("peak_rss_kb", PeakRssKb());
  w.EndObject();
  os << '\n';
}

/// Compares one rate against the baseline document; returns false (and
/// explains on stderr) when the candidate regressed past the tolerance.
bool CheckRate(const JsonValue& baseline, const char* key, double candidate,
               double max_regress_pct) {
  const JsonValue* v = baseline.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    std::cerr << "[bench] baseline has no numeric '" << key
              << "'; skipping that gate\n";
    return true;
  }
  const double base = v->number;
  if (base <= 0.0) return true;
  const double floor = base * (1.0 - max_regress_pct / 100.0);
  const double delta_pct = (candidate - base) / base * 100.0;
  std::cerr << "[bench] " << key << ": " << candidate << " vs baseline "
            << base << " (" << (delta_pct >= 0 ? "+" : "") << delta_pct
            << "%, floor " << floor << ")\n";
  if (candidate < floor) {
    std::cerr << "[bench] REGRESSION: " << key << " dropped more than "
              << max_regress_pct << "% vs baseline\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;

  // Warm-up + correctness pass: builds every workload once so first-touch
  // allocation costs never land in the timed passes.
  std::vector<CellResult> cells = RunGridOnce(opt, nullptr);
  std::uint64_t total_cycles = 0;
  std::uint64_t total_accesses = 0;
  for (const CellResult& c : cells) {
    total_cycles += c.core_cycles;
    total_accesses += c.accesses;
  }
  if (total_accesses == 0) {
    std::cerr << "dlpsim_bench: pinned grid simulated zero accesses; "
                 "check --apps/--configs/--scale\n";
    return 2;
  }

  std::vector<double> walls;
  double best_wall = 0.0;
  for (int r = 0; r < opt.repeat; ++r) {
    const dlpsim::exec::Stopwatch clock;
    RunGridOnce(opt, nullptr);
    const double s = clock.Seconds();
    walls.push_back(s);
    if (best_wall == 0.0 || s < best_wall) best_wall = s;
    std::cerr << "[bench] pass " << (r + 1) << "/" << opt.repeat << ": " << s
              << " s\n";
  }

  // Profiled pass, separate from the timed passes: ProfileSpan overhead
  // (two Stopwatch reads per span) stays out of the reported rates.
  dlpsim::obs::Profiler profiler;
  const dlpsim::exec::Stopwatch profile_clock;
  RunGridOnce(opt, &profiler);
  const double profile_wall = profile_clock.Seconds();

  const IngestResult ingest = RunIngestPhase(opt);
  std::cerr << "[bench] trace ingest: " << ingest.records << " records, "
            << ingest.packed_bytes << " B packed / " << ingest.text_bytes
            << " B text, packed " << ingest.packed_best_wall << " s, text "
            << ingest.text_best_wall << " s\n";

  {
    std::ofstream os(opt.out);
    if (!os) {
      std::cerr << "dlpsim_bench: cannot write " << opt.out << '\n';
      return 2;
    }
    WriteBenchJson(os, opt, cells, total_cycles, total_accesses, best_wall,
                   walls, profiler, profile_wall, ingest);
  }
  const double cps =
      best_wall > 0.0 ? static_cast<double>(total_cycles) / best_wall : 0.0;
  const double aps =
      best_wall > 0.0 ? static_cast<double>(total_accesses) / best_wall : 0.0;
  std::cerr << "[bench] " << total_cycles << " cycles, " << total_accesses
            << " accesses in " << best_wall << " s (best of " << opt.repeat
            << "): " << cps << " cycles/s, " << aps << " accesses/s -> "
            << opt.out << '\n';

  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline);
    if (!in) {
      std::cerr << "dlpsim_bench: cannot read baseline " << opt.baseline
                << '\n';
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    bool ok = false;
    const JsonValue baseline = ParseJson(buf.str(), &ok);
    if (!ok) {
      std::cerr << "dlpsim_bench: baseline " << opt.baseline
                << " is not valid JSON\n";
      return 2;
    }
    const bool cps_ok =
        CheckRate(baseline, "cycles_per_second", cps, opt.max_regress_pct);
    const bool aps_ok =
        CheckRate(baseline, "accesses_per_second", aps, opt.max_regress_pct);
    if (!cps_ok || !aps_ok) return 1;
  }
  return 0;
}
