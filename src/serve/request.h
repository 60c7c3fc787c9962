// Experiment request/response messages for dlpsim-as-a-service.
//
// Both directions use a line-oriented "key value" text grammar inside a
// protocol frame (serve/protocol.h): one field per line, the key is the
// first token, the value is the rest of the line. Unknown keys are
// ignored so old servers tolerate new clients and vice versa. Values may
// not contain newlines (serializers replace them with spaces; parsers
// never see one).
//
// A response optionally carries a result payload -- the
// `Metrics::ToText() + "---\n" + profile` text of bench::ToPayload, the
// entry bytes the content cache stores for both the server and the
// figure benches -- separated from the header fields by the first "---"
// line. The payload is verbatim (it contains its own "---" separator), so
// the split is on the FIRST such line only.
#pragma once

#include <cstdint>
#include <string>

#include "robust/error.h"

namespace dlpsim::serve {

/// One experiment: simulate `app` under configuration `config` at
/// `scale`. The request travels client -> server and, augmented with
/// `attempt`, server -> worker.
struct ExperimentRequest {
  std::uint64_t id = 0;        // client-chosen; echoed in the response
  std::string app;             // workload abbreviation ("BFS")
  std::string config;          // named configuration ("dlp")
  double scale = 1.0;          // iteration scale factor (ParseScale)
  // Trace-replay requests: path (visible to the server/worker) of a
  // recorded trace in either format (text or DLPT packed). Non-empty
  // switches the worker from the GPU-model workload named by `app` to a
  // cache-level TraceSource replay under `config`'s L1D; `app`/`scale`
  // are ignored for simulation but still required by the grammar (the
  // client sets app to "trace"). Cache keys for these requests use the
  // trace file's content hash over canonical packed bytes, so text and
  // packed copies of one trace share result-cache entries.
  std::string trace;
  std::uint64_t deadline_ms = 0;   // wall-clock budget; 0 = server default
  std::uint64_t watchdog_cycles = 0;  // robust/ watchdog stall window; 0 = off
  std::string faults;          // DLPSIM_FAULTS-style spec; empty = none
  // Chaos hook for fault-domain testing: "crash:N" makes the worker
  // abort() while attempt <= N, "exit:N" makes it _exit(3), "spin:N"
  // makes it sleep past any deadline. Honored only when the worker was
  // started with chaos enabled; production workers ignore it.
  std::string chaos;
  bool nocache = false;        // bypass the content-addressed result cache
  int attempt = 1;             // set by the worker pool when forwarding

  std::string Serialize() const;
  static bool Parse(const std::string& text, ExperimentRequest* out,
                    std::string* err = nullptr);
};

/// Terminal outcome of one request. Exactly one response per accepted
/// request; admission-control rejections are also responses (status
/// kQueueRejected) so a client can count every request as either served
/// or typed-failed -- nothing is silently dropped.
struct ExperimentResponse {
  std::uint64_t id = 0;
  robust::RunError error = robust::RunError::kNone;  // kNone = served
  std::string detail;          // human-readable cause when error != kNone
  int attempts = 0;            // attempts consumed by the worker pool
  int worker_crashes = 0;      // worker deaths observed for this request
  bool cached = false;         // served from the content-addressed cache
  std::uint64_t retry_after_ms = 0;  // kQueueRejected: back off this long
  std::string result;          // metrics+profile text when error == kNone

  bool ok() const { return error == robust::RunError::kNone; }

  std::string Serialize() const;
  static bool Parse(const std::string& text, ExperimentResponse* out,
                    std::string* err = nullptr);
};

/// Replaces CR/LF with spaces so a value can never break the line
/// grammar (exposed for tests).
std::string SanitizeValue(std::string value);

/// Shortest decimal text that parses back to exactly `scale`. Requests
/// and cache keys carry scales in this form: 0.0375 and 0.03749999 build
/// different workloads, so they must never share a request line or a key.
/// Short decimals such as 1, 0.5 or 0.03 print as `operator<<` does.
std::string ScaleText(double scale);

}  // namespace dlpsim::serve
