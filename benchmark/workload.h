// Shared plumbing of the four benchmark workloads (fig.cpp, serve.cpp,
// replay.cpp): run options, the outcome a workload reports, and helpers
// for time-boxed pass loops, seeded shuffles and scratch directories.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "host_speed.h"
#include "obs/profiler.h"
#include "sim/rng.h"
#include "spans.h"

namespace dlpbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // length of the measured window
  bool trace = false;     // false: end-to-end metrics; true: per-layer
  HostSpeed* host = nullptr;  // never null; sampled only in timed runs
};

struct MetricValue {
  double value = 0.0;
  std::uint64_t n = 1;  // samples behind the value
};

/// Raw timings of a run's timed passes: each pass's wall and its host
/// factor (see host_speed.h).
struct PassTimes {
  std::vector<double> walls;
  std::vector<double> host;
};

/// What a workload run reports. An operation is one grid cell, one
/// server request or one (trace, policy) replay; a failed correctness
/// check fails the operation it checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::map<std::string, MetricValue> metrics;
  PassTimes times;           // timed mode only
  std::string digest_input;  // canonical outputs, hashed into the digest

  /// Counts one operation; `ok == false` counts it failed with `what`.
  void Op(bool ok, const std::string& what);
  void Set(const std::string& name, double value, std::uint64_t n = 1) {
    metrics[name] = MetricValue{value, n};
  }
};

/// Sets wall_s to the median pass wall of out.times, each divided by its
/// pass's host factor, and returns it.
double ReportPassTimes(Outcome& out);

/// Runs `setup`, which returns the seconds it took, `reps` times. A timed
/// run samples the host before each repetition and after the last, and
/// divides each time by the host factor around it.
std::vector<double> TimeSetups(const Options& opt, std::size_t reps,
                               const std::function<double()>& setup);

/// Per-layer readings of one traced round. `counts` must repeat exactly
/// from round to round; `times` are wall-clock.
struct Round {
  std::map<std::string, double> counts;
  std::map<std::string, double> times;
};

/// Adds "<layer>.calls" to the counts and "<layer>.self_s" and
/// "<layer>.ns_per_call" to the times for every profiled phase in
/// `stats`, summing repeated phases (one entry per profiler merged).
void AddPhaseStats(
    const std::vector<std::pair<dlpsim::obs::Phase, dlpsim::obs::PhaseStat>>&
        stats,
    Round* round);

/// Reports the first round's counts (one failed check when a later round
/// disagrees) and the median of each time across rounds.
void ReportRounds(Outcome& out, const std::vector<Round>& rounds);

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> Shuffled(std::size_t n, dlpsim::Rng& rng);

/// Keeps a measured window going: at least `min_passes` passes, then one
/// more only while it is expected to end inside `seconds` (judged by the
/// median pass so far). With a `host`, samples its speed before a pass
/// at most once a second, and once more when the window closes.
class PassLoop {
 public:
  PassLoop(double seconds, std::size_t min_passes, HostSpeed* host = nullptr)
      : seconds_(seconds), min_passes_(min_passes), host_(host) {}

  bool More();
  void Record(double pass_seconds);
  const std::vector<double>& passes() const { return passes_; }
  /// Each recorded pass's host factor (all 1 without a host).
  std::vector<double> HostFactors() const;

 private:
  double seconds_;
  std::size_t min_passes_;
  HostSpeed* host_;
  dlpsim::exec::Stopwatch clock_;
  std::vector<double> passes_;
  std::vector<std::pair<double, double>> spans_;  // host_->Now() of each
  double pass_start_ = 0.0;
};

/// A fresh directory under the build tree's scratch root, removed with
/// everything in it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& label);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

Outcome RunFig(const Options& opt, bool cache_insufficient, SpanLog& spans);
Outcome RunServe(const Options& opt, SpanLog& spans);
Outcome RunReplay(const Options& opt, SpanLog& spans);

}  // namespace dlpbench
