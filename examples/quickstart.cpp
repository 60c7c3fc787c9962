// Quickstart: simulate one paper benchmark under the baseline L1D and
// under DLP, and print the headline metrics.
//
//   ./quickstart [APP] [SCALE]
//
// APP is a Table 2 abbreviation (default SRK); SCALE shrinks/grows the
// iteration count (default 1.0).
#include <iostream>
#include <string>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "SRK";
  double scale = 1.0;
  std::string err;
  if (argc > 2 && !ParseScale(argv[2], &scale, &err)) {
    std::cerr << "quickstart: " << err << "\n";
    return 2;
  }

  const Workload wl = MakeWorkload(app, scale);
  std::cout << "App: " << wl.info.abbr << " (" << wl.info.name << ", "
            << wl.info.suite << ", "
            << (wl.info.cache_insufficient ? "Cache Insufficient"
                                           : "Cache Sufficient")
            << ")\n";
  std::cout << "Static memory access ratio: "
            << Pct(wl.program->MemoryAccessRatio(), 2) << ", "
            << wl.program->NumMemoryPcs() << " memory PCs, "
            << wl.warps_per_sm << " warps/SM\n\n";

  // Both cells through the shared harness: cached on disk and run via
  // the parallel executor (DLPSIM_JOBS).
  const auto results = bench::RunGrid({app}, {"base", "dlp"}, scale, 0);
  const Metrics& base = results[0].metrics;
  const Metrics& dlp = results[1].metrics;

  TextTable t({"metric", "baseline 16KB", "DLP 16KB", "DLP/base"});
  auto row = [&](const std::string& name, double b, double d, int dec = 3) {
    t.AddRow({name, Fmt(b, dec), Fmt(d, dec),
              Fmt(b == 0.0 ? 0.0 : d / b, 3)});
  };
  row("IPC (thread insns/cycle)", base.ipc(), dlp.ipc());
  row("core cycles", static_cast<double>(base.core_cycles),
      static_cast<double>(dlp.core_cycles), 0);
  row("L1D load hit rate", base.l1d_hit_rate(), dlp.l1d_hit_rate());
  row("L1D load hits", static_cast<double>(base.l1d_load_hits),
      static_cast<double>(dlp.l1d_load_hits), 0);
  row("L1D traffic (serviced accesses)",
      static_cast<double>(base.l1d_traffic()),
      static_cast<double>(dlp.l1d_traffic()), 0);
  row("L1D bypasses", static_cast<double>(base.l1d_bypasses),
      static_cast<double>(dlp.l1d_bypasses), 0);
  row("L1D evictions", static_cast<double>(base.l1d_evictions),
      static_cast<double>(dlp.l1d_evictions), 0);
  row("L1D reservation-fail cycles",
      static_cast<double>(base.l1d_reservation_fails),
      static_cast<double>(dlp.l1d_reservation_fails), 0);
  row("interconnect bytes", static_cast<double>(base.icnt_bytes_total),
      static_cast<double>(dlp.icnt_bytes_total), 0);
  std::cout << t.Render() << '\n';

  std::cout << "Speedup with DLP: "
            << Fmt(base.ipc() == 0 ? 0 : dlp.ipc() / base.ipc(), 3) << "x\n";
  return bench::ExitStatus();
}
