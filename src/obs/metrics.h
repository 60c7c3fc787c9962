// Typed metrics registry: counters, gauges and fixed-bucket histograms
// with per-subsystem scopes ("cache", "icnt", "mem", "exec", ...).
//
// Instruments are registered once (GetCounter/GetGauge/GetHistogram are
// get-or-create and return stable pointers) and updated lock-free: each
// counter and gauge is one relaxed atomic, each histogram one atomic per
// bucket plus one for the sum. Every update commutes (integer sums,
// per-bucket sums), so a Snapshot() -- which sorts instruments by
// (scope, name) -- is byte-identical for any thread schedule that
// performs the same updates. That is the property the exec determinism
// suite pins: a grid run at DLPSIM_JOBS=1 and DLPSIM_JOBS=8 must produce
// identical WriteText() dumps.
//
// Simulation components never touch the registry. They keep plain
// counters, and GpuSimulator::Run publishes one run's totals into
// Registry::Global() once, as it returns (GpuSimulator::PublishMetrics).
// The instruments updated while work is in flight are the process-level
// ones: exec's pool and grid counters and serve's request counters.
//
// Values are integers only (no float accumulation): floating-point adds
// do not commute bit-exactly, so a double-valued counter would break the
// byte-identity guarantee the registry exists to provide.
//
// Export formats (both deterministic, sorted by scope then name):
//   WriteText - Prometheus-style text exposition (# HELP/# TYPE lines,
//               histogram _bucket{le=...}/_sum/_count series), served by
//               dlpsim_server's metrics request.
//   WriteJson - one self-describing JSON document.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dlpsim::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* ToString(MetricKind kind);

/// Monotone event counter. Add() is lock-free and wait-free.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Up/down instrument for occupancy-style values (queue depth, jobs in
/// flight). Value() is the net sum of all Add/Sub calls, so it is
/// deterministic exactly at quiescent points (e.g. after a pool drained:
/// every Add has been matched by its Sub).
class Gauge {
 public:
  void Add(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(std::int64_t d = 1) { Add(-d); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over unsigned integer observations. Bucket i
/// counts observations v with v <= bounds[i] (and v > bounds[i-1]);
/// observations above the last bound land in the overflow (+Inf) bucket.
/// Bounds are fixed at registration, strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::span<const std::uint64_t> bounds);

  /// Records `count` observations of value `v`.
  void Observe(std::uint64_t v, std::uint64_t count = 1);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Per-bucket counts; size bounds().size() + 1, last = overflow.
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const;  // total observations
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds + overflow
  std::atomic<std::uint64_t> sum_{0};               // sum of observed values
};

/// Identity + metadata of one registered instrument.
struct MetricInfo {
  std::string scope;
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
};

/// One instrument's value at Snapshot() time.
struct MetricSample {
  MetricInfo info;
  std::uint64_t counter = 0;                // kCounter
  std::int64_t gauge = 0;                   // kGauge
  std::vector<std::uint64_t> bounds;        // kHistogram
  std::vector<std::uint64_t> bucket_counts; // size bounds+1, last = +Inf
  std::uint64_t count = 0;                  // kHistogram observations
  std::uint64_t sum = 0;                    // kHistogram value sum
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create; the returned pointer is stable for the registry's
  /// lifetime and safe to cache in constructors. Throws std::logic_error
  /// when (scope, name) is already registered with a different kind (or,
  /// for histograms, different bounds).
  Counter* GetCounter(std::string_view scope, std::string_view name,
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view scope, std::string_view name,
                  std::string_view help = "");
  Histogram* GetHistogram(std::string_view scope, std::string_view name,
                          std::span<const std::uint64_t> bounds,
                          std::string_view help = "");

  /// Values of every instrument, sorted by (scope, name).
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every instrument's accumulators; registrations (and handed-
  /// out pointers) stay valid. Callers must quiesce updaters first.
  void Reset();

  std::size_t size() const;

  void WriteText(std::ostream& os) const;  // Prometheus exposition
  void WriteJson(std::ostream& os) const;

  /// The process-wide registry the simulator subsystems register into.
  static Registry& Global();

 private:
  struct Entry {
    MetricInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(const std::string& key);

  mutable std::mutex mu_;
  // Keyed "scope\x1f<name>": std::map iteration is already the stable
  // (scope, name) order every exporter needs.
  std::map<std::string, Entry> entries_;
};

/// Sanitized Prometheus metric name: "dlpsim_<scope>_<name>" with every
/// character outside [a-zA-Z0-9_] replaced by '_' (and a leading '_' when
/// the result would start with a digit).
std::string PrometheusName(std::string_view scope, std::string_view name);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string PrometheusLabelEscape(std::string_view s);

}  // namespace dlpsim::obs
