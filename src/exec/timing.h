// Machine-readable wall-clock telemetry for the experiment executor.
//
// Each completed grid cell records its simulation wall time (or that it
// was served from the result cache); WriteJson exports the log as
// `<bench>_timing.json` so the performance trajectory of the full
// reproduction sweep is tracked across commits. Recording is
// thread-safe -- cells complete concurrently under exec::ParallelMap.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dlpsim::exec {

/// Monotonic wall-clock stopwatch. This file is the project's only
/// sanctioned clock source (dlp_lint rule D2 rejects *_clock::now()
/// elsewhere): wall time is telemetry, never simulation input, so every
/// measurement flows through here where it is visibly kept away from
/// simulated state.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct TimingCell {
  std::string app;
  std::string config;
  double seconds = 0.0;  // simulation wall time (0 when served from cache)
  bool cached = false;
  // Grid-resilience outcome (exec::TryRunJobs): cells that threw are
  // recorded here so a sweep's failures are data in <bench>_timing.json,
  // not a lost process.
  bool failed = false;
  std::string error;  // empty unless failed
};

class TimingLog {
 public:
  TimingLog() = default;

  void Record(TimingCell cell);

  /// Wall seconds since construction (process lifetime for the global log).
  double ElapsedSeconds() const;

  std::vector<TimingCell> cells() const;

  /// Writes the JSON document:
  ///   { "bench", "jobs", "scale", "wall_seconds", "sim_seconds_total",
  ///     "cells_simulated", "cells_cached", "cells_failed", "cells": [...] }
  /// Failed cells additionally carry "failed" and "error".
  void WriteJson(std::ostream& os, const std::string& bench,
                 std::size_t jobs, double scale) const;

  /// Number of recorded cells with failed == true.
  std::size_t FailedCells() const;

 private:
  mutable std::mutex mu_;
  Stopwatch lifetime_;
  std::vector<TimingCell> cells_;
};

}  // namespace dlpsim::exec
