// Policy comparison: run one benchmark under every L1D management scheme
// (plus the larger cache configurations) and print a side-by-side metric
// breakdown -- the single-app version of the paper's Figs. 10-13.
//
//   ./policy_comparison [APP] [SCALE]
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "KM";
  double scale = 1.0;
  std::string err;
  if (argc > 2 && !ParseScale(argv[2], &scale, &err)) {
    std::cerr << "policy_comparison: " << err << "\n";
    return 2;
  }

  // Harness configuration names paired with their display labels; rows
  // come back from RunGrid in this order.
  const std::vector<std::string> configs = bench::ConfigNames();
  const std::vector<std::string> labels = {"16KB(base)", "Stall-Bypass",
                                           "Global-Prot", "DLP",
                                           "32KB",        "64KB"};

  const Workload wl = MakeWorkload(app, scale);
  std::cout << "== " << wl.info.abbr << " (" << wl.info.name << ", "
            << (wl.info.cache_insufficient ? "CI" : "CS") << ", "
            << wl.warps_per_sm << " warps/SM, ratio "
            << Pct(wl.program->MemoryAccessRatio(), 1) << ") ==\n\n";

  TextTable t({"config", "IPC", "cycles", "hitrate", "hits", "traffic",
               "bypass", "evict", "stallcyc", "ldlat", "icnt MB", "dram rd",
               "done"});
  const auto results = bench::RunGrid({app}, configs, scale, 0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Metrics& m = results[c].metrics;
    t.AddRow({labels[c], Fmt(m.ipc(), 1), std::to_string(m.core_cycles),
              Pct(m.l1d_hit_rate()), std::to_string(m.l1d_load_hits),
              std::to_string(m.l1d_traffic()),
              std::to_string(m.l1d_bypasses),
              std::to_string(m.l1d_evictions),
              std::to_string(m.ldst_stall_cycles),
              Fmt(m.avg_load_latency(), 0),
              Fmt(static_cast<double>(m.icnt_bytes_total) / 1e6, 1),
              std::to_string(m.dram_reads),
              m.completed != 0 ? "y" : "TIMEOUT"});
  }
  std::cout << t.Render();
  return bench::ExitStatus();
}
