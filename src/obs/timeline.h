// Time-series telemetry: periodic snapshots of the run's Metrics plus
// the protection machinery's internal state.
//
// The simulator drives the sampler from its core-clock loop: every
// `interval` core cycles it hands over the *cumulative* Metrics and a
// PolicySnapshot; the sampler stores both the cumulative values and the
// per-interval delta, so series of hit/bypass/traffic rates fall out
// directly and the deltas sum exactly to the final Metrics.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpu/metrics.h"
#include "sim/types.h"

namespace dlpsim {

/// Aggregated protection-policy state across every SM's L1D at one
/// sampling instant. All-zero under Baseline / Stall-Bypass (no PDPT).
struct PolicySnapshot {
  double mean_pd = 0.0;            // mean PD over PDPT entries, averaged over SMs
  std::uint64_t protected_lines = 0;  // cache lines with PL > 0, all SMs
  std::uint64_t samples_taken = 0;    // PDPT sample windows ended, summed
  // Count of occupied lines by current protected-life value; PL is a
  // 4-bit field so 16 buckets cover every representable value.
  std::array<std::uint64_t, 16> pl_histogram{};
};

struct TimelineSample {
  Cycle cycle = 0;
  Metrics delta;       // change since the previous sample
  Metrics cumulative;  // running totals at `cycle`
  PolicySnapshot policy;
};

class TimelineSampler {
 public:
  explicit TimelineSampler(Cycle interval);

  /// True when `now` has reached the next sampling instant.
  bool Due(Cycle now) const { return now >= next_; }
  /// The first cycle on which Due holds.
  Cycle next_due() const { return next_; }

  /// Appends a sample; `cumulative` is the run's Metrics-so-far. Called
  /// by the simulator when Due(), plus once at end of run.
  void Record(Cycle now, const Metrics& cumulative,
              const PolicySnapshot& snapshot);

  const std::vector<TimelineSample>& samples() const { return samples_; }
  Cycle interval() const { return interval_; }

  void Clear();

 private:
  Cycle interval_;
  Cycle next_;
  Metrics last_;
  std::vector<TimelineSample> samples_;
};

}  // namespace dlpsim
