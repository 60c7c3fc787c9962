// The benchmark's metric catalogue. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; the
// metric_defs_test keeps the two in step.
//
// End-to-end metrics are reported on every workload (run with --trace 0);
// what "one pass" and "one operation" mean per workload is documented in
// README.md. Per-layer metrics come from the separate traced run
// (--trace 1); a workload that never calls into a layer reports 0 for it.
#pragma once

#include <span>
#include <string_view>

#include "stats.h"

namespace dlpbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  Better better = Better::kLower;
  double bound = 0.0;  // allowed worsening of the median; end-to-end only
};

std::span<const MetricDef> EndToEndMetrics();
std::span<const MetricDef> PerLayerMetrics();

/// Looks `name` up in both tables; nullptr when unknown.
const MetricDef* FindMetric(std::string_view name);

}  // namespace dlpbench
