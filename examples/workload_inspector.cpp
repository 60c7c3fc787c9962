// Workload inspector: deep-dive into one benchmark's reuse behaviour and
// the DLP controller's reaction to it.
//
//   ./workload_inspector [APP] [SCALE]
//
// Prints the measured global and per-PC reuse-distance distributions
// (paper Figs. 3/7 semantics), the reuse-data miss rate (Fig. 4), and the
// protection distances DLP converged to for every memory PC.
#include <iostream>
#include <string>

#include "analysis/per_sm_profiler.h"
#include "analysis/report.h"
#include "core/pdpt.h"
#include "gpu/simulator.h"
#include "sim/config.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "BFS";
  double scale = 1.0;
  std::string err;
  if (argc > 2 && !ParseScale(argv[2], &scale, &err)) {
    std::cerr << "workload_inspector: " << err << "\n";
    return 2;
  }

  const Workload wl = MakeWorkload(app, scale);
  std::cout << "== " << wl.info.abbr << " (" << wl.info.name << ") ==\n";
  std::cout << "memory ratio " << Pct(wl.program->MemoryAccessRatio(), 2)
            << ", " << wl.program->NumMemoryPcs() << " memory PCs\n\n";

  // --- profiling run on the baseline configuration ---
  const SimConfig base_cfg = SimConfig::Baseline16KB();
  GpuSimulator base(base_cfg, wl.program.get(), wl.warps_per_sm);
  PerSmProfiler prof(base_cfg.num_cores, base_cfg.l1d.geom.sets);
  prof.AttachTo(base);
  const Metrics mb = base.Run();

  const RddHistogram global = prof.GlobalRdd();
  std::cout << "Global RDD (" << global.total() << " re-references of "
            << prof.accesses() << " accesses):\n";
  for (std::uint32_t b = 0; b < 4; ++b) {
    std::cout << "  " << kRdBucketNames[b] << ": "
              << Pct(global.fraction(b)) << '\n';
  }
  std::cout << "reuse-data miss rate: " << Pct(prof.reuse_miss_rate())
            << "  (compulsory excluded: " << prof.compulsory_accesses()
            << ")\n\n";

  TextTable rdd({"PC", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65", "re-refs"});
  for (const auto& [pc, hist] : prof.PerPcRdd()) {
    rdd.AddRow({std::to_string(pc), Pct(hist.fraction(0)),
                Pct(hist.fraction(1)), Pct(hist.fraction(2)),
                Pct(hist.fraction(3)), std::to_string(hist.total())});
  }
  std::cout << rdd.Render() << '\n';

  // --- DLP run: report converged protection distances ---
  const SimConfig dlp_cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  GpuSimulator dlp(dlp_cfg, wl.program.get(), wl.warps_per_sm);
  const Metrics md = dlp.Run();

  const PdpTable* pdpt = dlp.cores()[0].l1d().policy().pdpt();
  TextTable pds({"PC", "insn id", "final PD (SM0)"});
  for (const Instruction& insn : wl.program->body()) {
    if (insn.pattern == nullptr) continue;
    const std::uint32_t id = pdpt->IndexOf(insn.pc);
    pds.AddRow({std::to_string(insn.pc), std::to_string(id),
                std::to_string(pdpt->Pd(id))});
  }
  std::cout << pds.Render() << '\n';
  std::cout << "SM0 samples: " << pdpt->samples_taken
            << " (increase " << pdpt->increase_samples << ", decrease "
            << pdpt->decrease_samples << ")\n\n";

  TextTable cmp({"metric", "baseline", "DLP", "ratio"});
  auto row = [&](const std::string& n, double a, double b) {
    cmp.AddRow({n, Fmt(a), Fmt(b), Fmt(a == 0 ? 0 : b / a)});
  };
  row("IPC", mb.ipc(), md.ipc());
  row("L1D hit rate", mb.l1d_hit_rate(), md.l1d_hit_rate());
  row("L1D hits", static_cast<double>(mb.l1d_load_hits),
      static_cast<double>(md.l1d_load_hits));
  row("L1D traffic", static_cast<double>(mb.l1d_traffic()),
      static_cast<double>(md.l1d_traffic()));
  row("bypasses", static_cast<double>(mb.l1d_bypasses),
      static_cast<double>(md.l1d_bypasses));
  row("evictions", static_cast<double>(mb.l1d_evictions),
      static_cast<double>(md.l1d_evictions));
  std::cout << cmp.Render();
  return 0;
}
