// Per-SM profiling bundle.
//
// Reuse distances are defined within one cache's access stream (one SM's
// L1D); merging the 16 SMs into a single profiler would interleave their
// per-set counters and inflate every distance ~16x. This helper owns one
// RdProfiler per core, attaches each straight to its core's L1D, and
// merges the resulting histograms and counters for reporting. Each
// RdProfiler keeps a flat last-access table per set, and the same table
// yields the reuse-miss counts (Fig. 4), so one lookup per access serves
// both measurements.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/rd_profiler.h"
#include "gpu/simulator.h"
#include "sim/types.h"

namespace dlpsim {

class PerSmProfiler {
 public:
  PerSmProfiler(std::uint32_t num_sms, std::uint32_t sets);
  PerSmProfiler(const PerSmProfiler&) = delete;
  PerSmProfiler& operator=(const PerSmProfiler&) = delete;

  /// Attaches one RdProfiler to every core's L1D. Throws
  /// std::invalid_argument when `gpu` has a different core count or L1D
  /// set count than this profiler was built for. The profiler must
  /// outlive the simulator's run.
  void AttachTo(GpuSimulator& gpu);

  // --- merged views ---
  RddHistogram GlobalRdd() const;
  std::map<Pc, RddHistogram> PerPcRdd() const;
  std::uint64_t accesses() const { return Sum(&RdProfiler::accesses); }
  std::uint64_t reuse_accesses() const {
    return Sum(&RdProfiler::re_references);
  }
  std::uint64_t reuse_misses() const { return Sum(&RdProfiler::reuse_misses); }
  std::uint64_t compulsory_accesses() const {
    return Sum(&RdProfiler::compulsory_accesses);
  }
  double reuse_miss_rate() const {
    const std::uint64_t ra = reuse_accesses();
    return ra == 0 ? 0.0 : static_cast<double>(reuse_misses()) / ra;
  }

  /// Direct access for tests.
  const RdProfiler& rd(std::uint32_t sm) const { return rd_[sm]; }

 private:
  std::uint64_t Sum(std::uint64_t (RdProfiler::*count)() const) const {
    std::uint64_t n = 0;
    for (const RdProfiler& p : rd_) n += (p.*count)();
    return n;
  }

  // Built once, never resized, copied or moved: the L1Ds hold pointers
  // into it.
  std::vector<RdProfiler> rd_;
};

}  // namespace dlpsim
