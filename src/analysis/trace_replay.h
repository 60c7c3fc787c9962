// Cache-level trace replay: drive an L1DCache (any policy) directly from
// a recorded or synthetic access trace, without the full GPU timing
// model. This is the fast path for policy experiments and the timing
// backend of the record/replay front/back split: record a workload once
// (trace/recorder.h), persist it as text or DLPT packed binary, then
// re-simulate it across configurations from a streaming TraceSource.
//
// Trace formats: the text grammar ("L|S <address> <pc>" lines, see
// trace/text.h) and the packed binary format (trace/format.h). Replay is
// format agnostic -- it pulls from any trace::TraceSource.
//
// Replay semantics: accesses are issued in order, one per simulated
// cycle. Misses are serviced with a fixed configurable latency
// (fill_latency cycles); a reservation failure retries until resources
// free up (stall cycles are counted), which preserves the policies'
// stall/bypass behaviour without a memory-system model.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "core/l1d_cache.h"
#include "sim/ring.h"
#include "sim/types.h"
#include "trace/error.h"
#include "trace/record.h"
#include "trace/source.h"
#include "trace/text.h"

namespace dlpsim {

struct ReplayResult {
  std::uint64_t cycles = 0;
  std::uint64_t accesses = 0;
  std::uint64_t stall_cycles = 0;
  CacheStats cache;  // snapshot of the cache's counters after replay

  double hit_rate() const {
    const std::uint64_t serviced = cache.loads - cache.bypasses;
    return serviced == 0 ? 0.0
                         : static_cast<double>(cache.load_hits) / serviced;
  }
};

class TraceReplayer {
 public:
  /// Validates `cfg` (throws ConfigError) before building the cache:
  /// replay drives the L1D without GpuSimulator, so it needs its own
  /// fail-fast gate against UB-producing geometry.
  explicit TraceReplayer(const L1DConfig& cfg,
                         std::uint32_t fill_latency = 200)
      : cache_((cfg.ValidateOrThrow(), cfg)), fill_latency_(fill_latency) {}

  /// Replays every record `source` yields; returns aggregate results.
  /// Streaming: memory use is bounded by the source's block size, not
  /// the trace length. Source errors are the caller's to check
  /// (source.ok()) -- the replay covers whatever records were yielded.
  /// The cache keeps its state across calls (call Reset() between
  /// independent traces).
  ReplayResult Replay(trace::TraceSource& source);

  /// Replays an in-memory trace.
  ReplayResult Replay(const std::vector<TraceAccess>& trace);

  void Reset() { cache_.Reset(); }

  L1DCache& cache() { return cache_; }

 private:
  struct PendingFill {
    L1DResponse response;
    Cycle due = 0;
  };

  void Advance(Cycle now);  // deliver due fills, drain outgoing requests

  L1DCache cache_;
  std::uint32_t fill_latency_;
  Ring<PendingFill> fills_;
  std::vector<MshrToken> woken_;
};

}  // namespace dlpsim
