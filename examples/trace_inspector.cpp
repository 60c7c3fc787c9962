// Trace inspector: run one workload under DLP with full tracing and
// print what the protection controller actually did over time.
//
//   ./trace_inspector [APP] [SCALE] [OUT_DIR]
//
// Prints, per PDPT sample window (SM0): the window's TDA/VTA hit totals,
// the Fig. 9 update path taken, the mean protection distance before and
// after the recompute, and the bypasses the SM issued inside the window.
// Follows with the whole-GPU telemetry timeline (hits / bypasses /
// protected lines per interval). With OUT_DIR set, also writes the JSON
// report, Chrome trace (open in Perfetto or chrome://tracing) and
// timeline CSV for the run.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "core/pdpt.h"
#include "gpu/simulator.h"
#include "obs/exporters.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "sim/config.h"
#include "workloads/registry.h"

using namespace dlpsim;

namespace {

const char* PathName(std::uint64_t path) {
  switch (static_cast<PdpTable::UpdatePath>(path)) {
    case PdpTable::UpdatePath::kIncrease:
      return "increase";
    case PdpTable::UpdatePath::kDecrease:
      return "decrease";
    case PdpTable::UpdatePath::kHold:
      return "hold";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "BFS";
  double scale = 1.0;
  std::string err;
  if (argc > 2 && !ParseScale(argv[2], &scale, &err)) {
    std::cerr << "trace_inspector: " << err << "\n";
    return 2;
  }
  const std::string out_dir = argc > 3 ? argv[3] : "";

  const Workload wl = MakeWorkload(app, scale);
  const SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);

  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  TraceSink sink(1u << 20);
  TimelineSampler timeline(2000);
  gpu.SetTraceSink(&sink);
  gpu.SetTimeline(&timeline);

  const Metrics m = gpu.Run();

  std::cout << "== " << wl.info.abbr << " (" << wl.info.name
            << ") under DLP ==\n";
  std::cout << m.core_cycles << " core cycles, IPC " << Fmt(m.ipc())
            << ", hit rate " << Pct(m.l1d_hit_rate()) << ", "
            << m.l1d_bypasses << " bypasses\n";
  std::cout << sink.total_emitted() << " trace events ("
            << sink.dropped() << " dropped by the ring buffer)\n\n";

  // --- per-sample-window controller activity, SM0 ---
  std::cout << "PDPT sample windows (SM0):\n";
  TextTable windows({"window", "end cycle", "TDA hits", "VTA hits", "path",
                     "mean PD", "bypasses", "PL sat"});
  const std::vector<TraceEvent> events = sink.InOrder();
  Cycle window_start = 0;
  std::uint32_t index = 0;
  std::uint64_t bypasses_in_window = 0;
  std::uint64_t saturations_in_window = 0;
  for (const TraceEvent& e : events) {
    if (e.sm != 0) continue;
    if (e.kind == TraceEventKind::kBypass) ++bypasses_in_window;
    if (e.kind == TraceEventKind::kPlSaturated) ++saturations_in_window;
    if (e.kind != TraceEventKind::kPdSample) continue;
    windows.AddRow({std::to_string(index++), std::to_string(e.cycle),
                    std::to_string(e.block), std::to_string(e.pc),
                    PathName(e.arg2),
                    Fmt(static_cast<double>(e.arg0) / 1000.0, 2) + " -> " +
                        Fmt(static_cast<double>(e.arg1) / 1000.0, 2),
                    std::to_string(bypasses_in_window),
                    std::to_string(saturations_in_window)});
    window_start = e.cycle;
    bypasses_in_window = 0;
    saturations_in_window = 0;
  }
  (void)window_start;
  std::cout << windows.Render() << '\n';

  // --- whole-GPU telemetry timeline ---
  std::cout << "Telemetry timeline (interval " << timeline.interval()
            << " core cycles, whole GPU):\n";
  TextTable series({"cycle", "accesses", "hits", "bypasses", "evictions",
                    "mean PD", "prot lines"});
  for (const TimelineSample& s : timeline.samples()) {
    series.AddRow({std::to_string(s.cycle),
                   std::to_string(s.delta.l1d_accesses),
                   std::to_string(s.delta.l1d_load_hits),
                   std::to_string(s.delta.l1d_bypasses),
                   std::to_string(s.delta.l1d_evictions),
                   Fmt(s.policy.mean_pd, 2),
                   std::to_string(s.policy.protected_lines)});
  }
  std::cout << series.Render() << '\n';

  // --- optional machine-readable export ---
  if (!out_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(out_dir);
    const RunReportInfo info{.app = app, .config = "dlp", .scale = scale};
    const fs::path report = fs::path(out_dir) / (app + "_dlp.report.json");
    const fs::path chrome = fs::path(out_dir) / (app + "_dlp.trace.json");
    const fs::path csv = fs::path(out_dir) / (app + "_dlp.timeline.csv");
    {
      std::ofstream os(report);
      WriteJsonReport(os, info, cfg, m, &timeline, &sink);
    }
    {
      std::ofstream os(chrome);
      WriteChromeTrace(os, sink, &timeline, cfg.num_cores);
    }
    {
      std::ofstream os(csv);
      WriteTimelineCsv(os, timeline);
    }
    std::cout << "wrote " << report.string() << ", " << chrome.string()
              << ", " << csv.string() << '\n';
  }
  return 0;
}
