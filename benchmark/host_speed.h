// Host-speed reference for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over seconds to hours, so two runs of the same commit can
// differ more than any useful regression bound. A HostSpeed times a fixed
// kernel -- a small set-associative cache model, compiled in this project
// and independent of the simulator, on as many threads as the workloads
// use -- between the timed passes. The kernel's time next to a pass,
// against its time on the reference host, is that pass's host factor;
// dividing the pass's times by it states them in reference-host seconds.
// A change to the simulator moves those; a change in host speed moves the
// kernel too and cancels out.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/timing.h"

namespace dlpbench {

class HostSpeed {
 public:
  /// Median kernel time on the reference host (4-vCPU Xeon KVM guest).
  /// Changing it rescales every reported time; never change it.
  static constexpr double kReferenceSeconds = 0.055;

  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Seconds since construction; the time base of FactorOver().
  double Now() const { return clock_.Seconds(); }

  /// Runs the kernel for about `seconds` without recording it. An idle
  /// guest runs its first fraction of a second of parallel work several
  /// times slower than the rest.
  void WarmUp(double seconds);
  /// Times the kernel once: the mean over its threads of the time each
  /// takes for a fixed share of work, after an untimed warm-up.
  void Sample();
  /// Samples when at least `interval_s` passed since the last sample.
  void SampleEvery(double interval_s);

  /// Host factor of work done between Now() readings t0 and t1: the mean
  /// of the last sample that ended by t0 and the first that began at or
  /// after t1, over kReferenceSeconds; above 1 on a slower host. Uses
  /// whichever of the two exists, and is 1 when neither does.
  double FactorOver(double t0, double t1) const;
  /// Median of every sample over kReferenceSeconds; 1 with no samples.
  double Factor() const;
  std::size_t samples() const { return samples_.size(); }

 private:
  struct Model;
  struct Reading {
    double start = 0.0;  // Now() when the sample began
    double end = 0.0;    // Now() when it ended
    double seconds = 0.0;
  };

  double RunKernel();

  std::vector<Model> models_;  // one per thread, allocated once
  dlpsim::exec::Stopwatch clock_;
  std::vector<Reading> samples_;
  std::uint64_t sink_ = 0;  // the kernel's results, so it is not elided
};

}  // namespace dlpbench
