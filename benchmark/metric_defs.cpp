#include "metric_defs.h"

#include <array>

namespace dlpbench {

namespace {

constexpr Better kLower = Better::kLower;
constexpr Better kHigher = Better::kHigher;

constexpr std::array kEndToEnd = {
    MetricDef{"wall_s", "s", kLower, 0.25},
    MetricDef{"events_per_s", "1/s", kHigher, 0.25},
    MetricDef{"setup_s", "s", kLower, 0.25},
    MetricDef{"peak_rss_mb", "MB", kLower, 0.10},
};

constexpr std::array kPerLayer = {
    // gpu: the GpuSimulator run loop and its drain scan.
    MetricDef{"gpu.core_cycles", "count", kLower},
    MetricDef{"gpu.run.self_s", "s", kLower},
    MetricDef{"gpu.drain_check.calls", "count", kLower},
    MetricDef{"gpu.drain_check.self_s", "s", kLower},
    // sm, icnt, mem: the three clock-domain bodies.
    MetricDef{"sm.core_tick.calls", "count", kLower},
    MetricDef{"sm.core_tick.self_s", "s", kLower},
    MetricDef{"sm.core_tick.ns_per_call", "ns", kLower},
    MetricDef{"icnt.tick.calls", "count", kLower},
    MetricDef{"icnt.tick.self_s", "s", kLower},
    MetricDef{"icnt.tick.ns_per_call", "ns", kLower},
    MetricDef{"icnt.bytes", "B", kLower},
    MetricDef{"mem.tick.calls", "count", kLower},
    MetricDef{"mem.tick.self_s", "s", kLower},
    MetricDef{"mem.tick.ns_per_call", "ns", kLower},
    MetricDef{"mem.l2_accesses", "count", kLower},
    MetricDef{"mem.dram_reads", "count", kLower},
    // core: the L1D and its protection policy.
    MetricDef{"core.l1d_accesses", "count", kLower},
    MetricDef{"core.cache_access.calls", "count", kLower},
    MetricDef{"core.cache_access.self_s", "s", kLower},
    MetricDef{"core.policy_update.calls", "count", kLower},
    MetricDef{"core.policy_update.self_s", "s", kLower},
    MetricDef{"core.l1d_hit_rate", "ratio", kHigher},
    MetricDef{"core.bypass_frac", "ratio", kLower},
    MetricDef{"core.reservation_fail_frac", "ratio", kLower},
    // analysis: reuse-distance profiling and the trace replayer.
    MetricDef{"analysis.rd_profile_frac", "ratio", kLower},
    MetricDef{"analysis.replay_records_per_s", "1/s", kHigher},
    // exec: the grid executor.
    MetricDef{"exec.cell_p50_s", "s", kLower},
    MetricDef{"exec.cell_max_s", "s", kLower},
    MetricDef{"exec.busy_frac", "ratio", kHigher},
    // workloads: program construction.
    MetricDef{"workloads.make_s", "s", kLower},
    // trace: recording, the packed codec.
    MetricDef{"trace.record_s", "s", kLower},
    MetricDef{"trace.decode_records_per_s", "1/s", kHigher},
    MetricDef{"trace.encode_records_per_s", "1/s", kHigher},
    MetricDef{"trace.bytes_per_record", "B", kLower},
    // serve: the experiment server, its client and its result cache.
    MetricDef{"serve.ping_us_p50", "us", kLower},
    MetricDef{"serve.hit_p50_us", "us", kLower},
    MetricDef{"serve.hit_p99_us", "us", kLower},
    MetricDef{"serve.miss_p50_ms", "ms", kLower},
    MetricDef{"serve.miss_p90_ms", "ms", kLower},
    MetricDef{"serve.miss_overhead_ms", "ms", kLower},
    MetricDef{"serve.queue_wait_us_p50", "us", kLower},
    MetricDef{"serve.cache_load_us_p50", "us", kLower},
    MetricDef{"serve.cache_store_us_p50", "us", kLower},
    MetricDef{"serve.runs_executed", "count", kLower},
    MetricDef{"serve.cache_hits", "count", kHigher},
    MetricDef{"serve.reject_retries", "count", kLower},
    MetricDef{"serve.worker_restarts", "count", kLower},
    // obs: the cost of observing.
    MetricDef{"obs.profiler_overhead_frac", "ratio", kLower},
    MetricDef{"obs.trace_overhead_frac", "ratio", kLower},
};

}  // namespace

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }

std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }

const MetricDef* FindMetric(std::string_view name) {
  for (const auto table : {EndToEndMetrics(), PerLayerMetrics()}) {
    for (const MetricDef& m : table) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

}  // namespace dlpbench
