// Custom workload example: build a kernel with the public ProgramBuilder
// API, sweep one of its parameters, and watch how the DLP controller
// responds. The scenario: a database-style probe kernel whose hash-table
// hot set grows until it falls out of every protection reach.
//
//   ./custom_workload [warps_per_sm]
//
// warps_per_sm is 1 to core.max_warps (48), default 24.
#include <iostream>
#include <memory>

#include "analysis/report.h"
#include "core/pdpt.h"
#include "gpu/simulator.h"
#include "sim/config.h"
#include "sim/parse.h"
#include "workloads/registry.h"

using namespace dlpsim;

namespace {

/// A probe kernel: stream of keys (always misses), a per-warp cursor
/// (tiny protectable working set), and a hash-table region of `ws_lines`
/// lines per warp whose protectability is what we sweep.
std::unique_ptr<Program> ProbeKernel(std::uint64_t ws_lines) {
  ProgramBuilder b(/*iterations=*/120);
  b.LoadStream()            // key stream: compulsory misses
      .Alu(12)
      .LoadIndirect(8192, 0.0, 0xabc)  // bucket chase: churn
      .Alu(12)
      .LoadIndirect(8192, 0.0, 0xabd)  // overflow chain: churn
      .Alu(12)
      .LoadPrivate(ws_lines)  // hash-table window under test
      .StoreStream()          // result emit
      .Alu(12);
  return b.Build();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t max_warps = SimConfig::Baseline16KB().core.max_warps;
  std::uint32_t warps = 24;
  if (argc > 2 || (argc == 2 && (!ParseUnsigned(argv[1], &warps) ||
                                 warps == 0 || warps > max_warps))) {
    std::cerr << "custom_workload: want warps_per_sm in 1.." << max_warps
              << "\n"
              << "usage: custom_workload [warps_per_sm]\n";
    return 2;
  }
  std::cout << "Custom workload: hash-probe kernel, " << warps
            << " warps/SM. Sweeping the per-warp hash window.\n"
            << "Rule of thumb: per-set reuse distance ~= S * total "
               "transactions * warps / 32 sets;\nprotection reaches query "
               "distances <= 15, the 4-way LRU about 4 insertions.\n\n";

  TextTable t({"window S", "base IPC", "DLP IPC", "speedup", "base hit%",
               "DLP hit%", "DLP bypass", "PD(window) SM0"});
  for (std::uint64_t ws : {1, 2, 3, 4, 8, 16}) {
    auto program = ProbeKernel(ws);

    GpuSimulator base(SimConfig::Baseline16KB(), program.get(), warps);
    const Metrics mb = base.Run();

    GpuSimulator dlp(SimConfig::WithPolicy(PolicyKind::kDlp), program.get(),
                     warps);
    const Metrics md = dlp.Run();

    // Report the PD DLP converged to for the swept load (PC of the third
    // memory instruction).
    Pc window_pc = 0;
    int seen = 0;
    for (const Instruction& insn : program->body()) {
      if (insn.op == OpClass::kLoad && ++seen == 4) window_pc = insn.pc;
    }
    const std::uint32_t pd =
        dlp.cores()[0].l1d().policy().PdForPc(window_pc);

    t.AddRow({std::to_string(ws), Fmt(mb.ipc(), 1), Fmt(md.ipc(), 1),
              Fmt(mb.ipc() == 0 ? 0 : md.ipc() / mb.ipc(), 3),
              Pct(mb.l1d_hit_rate()), Pct(md.l1d_hit_rate()),
              std::to_string(md.l1d_bypasses), std::to_string(pd)});
  }
  std::cout << t.Render() << '\n';
  std::cout << "Expected: small windows are protected (high PD, hit-rate "
               "gain); once the window's reuse distance leaves the PD "
               "reach the controller stops protecting it and gains fade "
               "to bypass-relief only.\n";
  return 0;
}
