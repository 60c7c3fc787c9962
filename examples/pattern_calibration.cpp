// Pattern calibration: measures how workload-pattern parameters map to
// per-set reuse-distance buckets on the baseline cache geometry. This is
// the tool used to calibrate the 18 synthetic benchmarks against the
// paper's Fig. 3 profiles (see DESIGN.md).
//
//   ./pattern_calibration [warps_per_sm] [mem_pcs]
//
// warps_per_sm is 1 to core.max_warps (48), default 48; mem_pcs, the
// probe loads per iteration, is 1 to kMaxProbePcs (32), default 4.
#include <functional>
#include <iostream>
#include <memory>

#include "analysis/per_sm_profiler.h"
#include "analysis/report.h"
#include "gpu/simulator.h"
#include "sim/config.h"
#include "sim/parse.h"
#include "workloads/registry.h"

using namespace dlpsim;

namespace {

/// The probe PCs share one PDPT and one histogram; more than this only
/// lengthens every run.
constexpr std::uint32_t kMaxProbePcs = 32;

/// Parses argv[i] into `*out` when given; false when it is not a count in
/// [1, max].
bool ParseCount(int argc, char** argv, int i, std::uint32_t max,
                std::uint32_t* out) {
  if (argc <= i) return true;
  return ParseUnsigned(argv[i], out) && *out >= 1 && *out <= max;
}

/// Builds a probe program: `mem_pcs` loads of the pattern under test per
/// iteration plus a little ALU padding, runs it, and returns the RDD of
/// the first probe PC.
RddHistogram Measure(std::uint32_t warps, std::uint32_t mem_pcs,
                     const std::function<ProgramBuilder&(ProgramBuilder&)>&
                         add_probe) {
  ProgramBuilder b(60);
  for (std::uint32_t i = 0; i < mem_pcs; ++i) {
    add_probe(b);
    b.Alu(8);
  }
  auto program = b.Build();

  SimConfig cfg = SimConfig::Baseline16KB();
  GpuSimulator gpu(cfg, program.get(), warps);
  PerSmProfiler prof(cfg.num_cores, cfg.l1d.geom.sets);
  prof.AttachTo(gpu);
  gpu.Run();

  // Aggregate over all probe PCs (they are statistically identical).
  RddHistogram sum;
  for (const auto& [pc, hist] : prof.PerPcRdd()) sum.Merge(hist);
  return sum;
}

void Report(TextTable& t, const std::string& label, const RddHistogram& h) {
  t.AddRow({label, Pct(h.fraction(0)), Pct(h.fraction(1)),
            Pct(h.fraction(2)), Pct(h.fraction(3)),
            std::to_string(h.total())});
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t max_warps = SimConfig::Baseline16KB().core.max_warps;
  std::uint32_t warps = 48;
  std::uint32_t mem_pcs = 4;
  if (argc > 3 || !ParseCount(argc, argv, 1, max_warps, &warps) ||
      !ParseCount(argc, argv, 2, kMaxProbePcs, &mem_pcs)) {
    std::cerr << "pattern_calibration: want warps_per_sm in 1.." << max_warps
              << " and mem_pcs in 1.." << kMaxProbePcs << "\n"
              << "usage: pattern_calibration [warps_per_sm] [mem_pcs]\n";
    return 2;
  }

  std::cout << "warps/SM=" << warps << ", probe PCs per iteration="
            << mem_pcs << "\n\n";

  TextTable priv({"private ws", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65",
                  "re-refs"});
  for (std::uint64_t ws : {1, 2, 3, 4, 6, 8, 12, 16, 24, 48}) {
    Report(priv, "S=" + std::to_string(ws),
           Measure(warps, mem_pcs, [&](ProgramBuilder& b) -> ProgramBuilder& {
             return b.LoadPrivate(ws);
           }));
  }
  std::cout << priv.Render() << '\n';

  TextTable shared({"shared tile", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65",
                    "re-refs"});
  for (std::uint32_t share : {2, 4, 8, 16}) {
    for (std::uint64_t tile : {4, 16, 64}) {
      Report(shared,
             "L=" + std::to_string(tile) + ",d=" + std::to_string(share),
             Measure(warps, mem_pcs,
                     [&](ProgramBuilder& b) -> ProgramBuilder& {
                       return b.LoadShared(tile, share);
                     }));
    }
  }
  Report(shared, "L=48,d=all",
         Measure(warps, mem_pcs, [&](ProgramBuilder& b) -> ProgramBuilder& {
           return b.LoadShared(48, 0);
         }));
  std::cout << shared.Render() << '\n';

  TextTable ind({"indirect", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65",
                 "re-refs"});
  for (std::uint64_t u : {64, 512, 4096}) {
    for (double s : {0.0, 0.6, 0.9}) {
      Report(ind, "U=" + std::to_string(u) + ",s=" + Fmt(s, 1),
             Measure(warps, mem_pcs,
                     [&](ProgramBuilder& b) -> ProgramBuilder& {
                       return b.LoadIndirect(u, s, 0x1234 + u);
                     }));
    }
  }
  std::cout << ind.Render();
  return 0;
}
