// Benchmark-owned spans for the traced run.
//
// The driver opens one span around every call it makes into a layer
// (a grid cell, GpuSimulator::Run, Client::Call, a trace replay, a packed
// decode or encode). Spans are kept in memory and written once, at exit,
// as a Chrome trace-event document (chrome://tracing or ui.perfetto.dev).
// A disabled log records nothing, so timed passes pay one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "exec/timing.h"

namespace dlpbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      // 0 = root
  std::uint64_t request_id = 0;  // serve requests; 0 = none
  std::uint32_t tid = 0;         // small per-thread index
  double start_s = 0.0;          // since the log was created
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its id (0 when the log is disabled).
  std::uint64_t Begin(const std::string& name, std::uint64_t parent = 0,
                      std::uint64_t request_id = 0);
  void End(std::uint64_t id);

  std::size_t size() const;

  void WriteChromeTrace(std::ostream& os) const;

 private:
  std::uint32_t ThreadIndex();  // requires mu_

  const bool enabled_;
  const dlpsim::exec::Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span; a disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t parent = 0,
             std::uint64_t request_id = 0)
      : log_(log), id_(log.Begin(name, parent, request_id)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

}  // namespace dlpbench
