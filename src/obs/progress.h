// DLPSIM_PROGRESS heartbeat: periodic one-line progress from a running
// simulation (cycle, accesses/sec, warps finished, ETA), timed with the
// D2-sanctioned exec::Stopwatch.
//
// The meter is sampled on the simulator's core clock edge (Due/Emit, the
// same pattern as TimelineSampler) and is purely observational: it never
// feeds simulated state, so attaching one cannot change results. The
// last emitted line is retained thread-safely so the robust/ watchdog
// can quote it in a StallDiagnostic -- a stalled run's report then shows
// how far it got and how fast it was moving when it died.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

#include "exec/timing.h"

namespace dlpsim::obs {

/// One progress observation, assembled by the simulator.
struct ProgressSample {
  std::uint64_t cycle = 0;
  std::uint64_t accesses = 0;  // cumulative L1D accesses
  std::uint64_t warps_total = 0;
  std::uint64_t warps_finished = 0;
};

class ProgressMeter {
 public:
  /// Emits every `interval_cycles` core cycles, prefixed with `label`
  /// (e.g. "BFS/dlp"). `os` defaults to std::cerr so heartbeats never
  /// corrupt stdout report streams.
  explicit ProgressMeter(std::uint64_t interval_cycles,
                         std::string label = "", std::ostream* os = nullptr);

  bool Due(std::uint64_t cycle) const { return cycle >= next_; }
  /// The first cycle on which Due holds.
  std::uint64_t next_due() const { return next_; }

  /// Formats and writes one heartbeat line, e.g.
  ///   [progress] BFS/dlp cycle=2000000 acc/s=1523412 warps=412/512
  ///   eta=3.1s
  /// acc/s is wall-clock throughput since construction; ETA scales the
  /// elapsed wall time by the unfinished warp fraction.
  void Emit(const ProgressSample& sample);

  /// The most recent heartbeat line (empty before the first Emit).
  /// Thread-safe: the watchdog may read it from a stall report path.
  std::string last_line() const;

  std::uint64_t interval() const { return interval_; }

 private:
  exec::Stopwatch clock_;
  std::uint64_t interval_;
  std::uint64_t next_;
  std::string label_;
  std::ostream* os_;  // never null after construction
  mutable std::mutex mu_;
  std::string last_line_;
};

}  // namespace dlpsim::obs
