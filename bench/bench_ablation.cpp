// Ablation bench for the starred design decisions in DESIGN.md:
//   (a) bypassed queries consume protected life (paper §4.1.1) -- without
//       it, fully protected sets would deadlock into permanent bypassing;
//   (b) VTA associativity mirrors the TDA's (paper footnote 2);
//   (c) sample length 200 accesses (paper §4.1.4);
//   (d) PD field width (4 bits).
// Each ablation reruns a representative CI subset under DLP and reports
// the IPC delta against the configured default.
#include <chrono>
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

namespace {

const std::vector<std::string> kApps = {"CFD", "SRK", "SR2K", "KM"};

double RunDlp(const std::string& app, const ProtectionConfig& prot) {
  SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  cfg.l1d.prot = prot;
  const Workload wl = MakeWorkload(app, bench::Scale());
  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  return gpu.Run().ipc();
}

}  // namespace

int main() {
  bench::TimingScope timing("bench_ablation");
  std::cout << "=== Ablations of DLP design choices (DLP IPC, normalized "
               "to the paper-default DLP) ===\n\n";

  struct Variant {
    std::string name;
    ProtectionConfig prot;
  };
  std::vector<Variant> variants;
  variants.push_back({"default (paper)", ProtectionConfig{}});
  {
    ProtectionConfig p;
    p.vta_ways = 1;
    variants.push_back({"VTA 1-way (vs mirror TDA)", p});
  }
  {
    ProtectionConfig p;
    p.vta_ways = 16;
    variants.push_back({"VTA 16-way", p});
  }
  {
    ProtectionConfig p;
    p.sample_accesses = 50;
    variants.push_back({"sample = 50 accesses", p});
  }
  {
    ProtectionConfig p;
    p.sample_accesses = 1000;
    variants.push_back({"sample = 1000 accesses", p});
  }
  {
    ProtectionConfig p;
    p.pd_bits = 3;
    variants.push_back({"PD 3 bits (max 7)", p});
  }

  std::vector<std::string> headers = {"variant"};
  for (const auto& a : kApps) headers.push_back(a);
  TextTable t(headers);

  // Every (variant, app) cell is an independent simulation; run them all
  // through the executor, then print in the original order. Variants
  // bypass the harness cache (custom ProtectionConfigs have no cache
  // key), so each cell is timed and logged here.
  const std::size_t num_apps = kApps.size();
  const std::vector<double> ipc = exec::ParallelMap(
      variants.size() * num_apps, [&](std::size_t i) {
        const Variant& v = variants[i / num_apps];
        const std::string& app = kApps[i % num_apps];
        const exec::Stopwatch cell_clock;
        const double r = RunDlp(app, v.prot);
        exec::TimingCell cell;
        cell.app = app;
        cell.config = v.name;
        cell.seconds = cell_clock.Seconds();
        bench::Timing().Record(std::move(cell));
        return r;
      });

  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row = {variants[v].name};
    for (std::size_t a = 0; a < num_apps; ++a) {
      row.push_back(v == 0 ? Fmt(1.0, 3)
                           : Fmt(ipc[v * num_apps + a] / ipc[a], 3));
    }
    t.AddRow(row);
  }
  std::cout << t.Render() << '\n';
  std::cout << "Expected: a deeper VTA sees longer distances (helps until "
               "over-protection), very short samples make PDs noisy, very "
               "long ones adapt slowly, and a narrower PD field shortens "
               "the protection window.\n";
  return bench::ExitStatus();
}
