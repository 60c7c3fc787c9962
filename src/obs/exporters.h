// Machine-readable exporters for run telemetry:
//
//   WriteJsonReport  - one self-describing JSON document per run: app /
//                      configuration identity, key simulator parameters,
//                      the full Metrics counter block, derived rates and
//                      the sampled timeline.
//   WriteChromeTrace - Chrome trace-event format (JSON), loadable in
//                      Perfetto / chrome://tracing: one instant event per
//                      retained trace record (thread = SM) plus counter
//                      tracks from the timeline (mean PD, protected
//                      lines, per-interval hits and bypasses).
//   WriteTimelineCsv - the timeline as CSV, one row per sample: cycle,
//                      every Metrics delta column, and the policy state.
//   WriteProfileChromeTrace - an obs::Profiler's span buffer as Chrome
//                      trace-event "X" (complete) events, so a profiled
//                      run's phase timeline opens in Perfetto next to
//                      the simulation traces.
//
// String handling: every string that reaches a JSON document here flows
// through JsonWriter, which escapes quotes, backslashes and control
// characters -- hostile app/config names (commas, quotes, newlines)
// round-trip safely. The CSV exporters emit only numeric columns; a
// string column would need RFC-4180 quoting first.
#pragma once

#include <ostream>
#include <string>

#include "gpu/metrics.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "sim/config.h"

namespace dlpsim {

namespace obs {
class Profiler;
}  // namespace obs

/// Identity of the run being reported.
struct RunReportInfo {
  std::string app;     // workload abbreviation ("BFS"), may be empty
  std::string config;  // configuration name ("dlp"), may be empty
  double scale = 1.0;  // workload scale factor
};

void WriteJsonReport(std::ostream& os, const RunReportInfo& info,
                     const SimConfig& cfg, const Metrics& metrics,
                     const TimelineSampler* timeline = nullptr,
                     const TraceSink* trace = nullptr);

void WriteChromeTrace(std::ostream& os, const TraceSink& trace,
                      const TimelineSampler* timeline = nullptr,
                      std::uint32_t num_sms = 0);

void WriteTimelineCsv(std::ostream& os, const TimelineSampler& timeline);

/// Renders a phase profiler's retained span events (obs/profiler.h) as
/// Chrome trace-event complete ("X") events on the wall-clock microsecond
/// axis, one track per span depth. `label` names the process track (the
/// app/config stem, may be empty).
void WriteProfileChromeTrace(std::ostream& os, const obs::Profiler& profiler,
                             const std::string& label = "");

}  // namespace dlpsim
