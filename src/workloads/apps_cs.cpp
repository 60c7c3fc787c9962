// Cache Sufficient benchmark kernels (paper Table 2, upper half).
//
// Each builder encodes the app's calibration targets:
//  - memory access ratio < 1% (Fig. 6 ordering),
//  - the dominant reuse-distance buckets of Fig. 3,
//  - enough streaming/miss pressure where the paper reports side effects
//    (SRAD/BT: Stall-Bypass over-bypasses and loses reuse hits).
// Working-set sizes are in 128-byte lines; rough per-set RD for a private
// working set of S lines is ~(warps_per_sm/32 sets) * S, and shared tiles
// of L lines shared by groups of d warps yield a short-RD spike (the d-1
// co-walkers) plus a ~0.75*L tail. See DESIGN.md.
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "workloads/registry.h"

namespace dlpsim {

namespace {

AppInfo InfoFor(std::string_view abbr) {
  for (const AppInfo& a : AllApps()) {
    if (a.abbr == abbr) return a;
  }
  throw std::out_of_range("unknown application: " + std::string(abbr));
}

// MakeWorkload caps scale at kMaxScale, so the count fits 32 bits.
std::uint32_t ScaledIters(std::uint32_t base, double scale) {
  assert(base <= kMaxBaseIterations && scale <= kMaxScale);
  const auto scaled = static_cast<std::uint32_t>(base * scale);
  return scaled == 0 ? 1 : scaled;
}

Workload Finish(std::string_view abbr, ProgramBuilder& b,
                std::uint32_t warps) {
  Workload w;
  w.info = InfoFor(abbr);
  w.program = b.Build();
  w.warps_per_sm = warps;
  return w;
}

}  // namespace

bool IsCsApp(std::string_view abbr) {
  for (const AppInfo& a : AllApps()) {
    if (a.abbr == abbr) return !a.cache_insufficient;
  }
  return false;
}

Workload BuildCsApp(std::string_view abbr, double scale) {
  // --- HG: streaming input scan + scattered histogram bins; RDs almost
  // all > 65, negligible memory ratio. ---
  if (abbr == "HG") {
    ProgramBuilder b(ScaledIters(80, scale));
    ProgramBuilder& body = b.LoadStream()
        .LoadIndirect(12288, 0.1, 0x9001)
        .StoreIndirect(12288, 0.1, 0x9002)
        .Alu(330);
    (void)body;
    return Finish(abbr, b, 24);
  }
  // --- HS: 2-D stencil; mixes short tile reuse with a long row tail. ---
  if (abbr == "HS") {
    ProgramBuilder b(ScaledIters(36, scale));
    b.LoadShared(6, 4).Alu(200).LoadPrivate(8).Alu(200).LoadStream()
        .StoreStream()
        .Alu(200);
    return Finish(abbr, b, 24);
  }
  // --- STEN: 3-D stencil; z-plane reuse gives mostly long RDs. ---
  if (abbr == "STEN") {
    ProgramBuilder b(ScaledIters(68, scale));
    b.LoadPrivate(32).Alu(180).LoadPrivate(32).Alu(180).LoadStream()
        .StoreStream()
        .Alu(200);
    return Finish(abbr, b, 24);
  }
  // --- SC: separable convolution; tiny row tiles, RDs 1~4 dominate. ---
  if (abbr == "SC") {
    ProgramBuilder b(ScaledIters(14, scale));
    b.LoadShared(3, 4).Alu(180).LoadShared(3, 4).Alu(180).LoadShared(3, 4)
        .StoreStream()
        .Alu(200);
    return Finish(abbr, b, 24);
  }
  // --- BP: back propagation; short shared weight rows. ---
  if (abbr == "BP") {
    ProgramBuilder b(ScaledIters(12, scale));
    b.LoadShared(2, 8).Alu(160).LoadShared(2, 8).Alu(160).LoadPrivate(2)
        .StoreStream()
        .Alu(160);
    return Finish(abbr, b, 24);
  }
  // --- SRAD: small stencil tiles with a high hit rate; the scattered
  // streaming load periodically clogs sets, which is what makes
  // Stall-Bypass over-bypass and shed reuse hits (paper §6.1.1). ---
  if (abbr == "SRAD") {
    ProgramBuilder b(ScaledIters(12, scale));
    b.LoadShared(4, 4).Alu(150).LoadShared(4, 4).Alu(150).LoadShared(4, 4)
        .LoadStream(4)
        .StoreStream()
        .Alu(320);
    return Finish(abbr, b, 32);
  }
  // --- NW: wavefront over a score matrix; modest private reuse. ---
  if (abbr == "NW") {
    ProgramBuilder b(ScaledIters(12, scale));
    b.LoadPrivate(4).Alu(170).LoadPrivate(4).Alu(170).LoadStream()
        .StoreStream()
        .Alu(160);
    return Finish(abbr, b, 16);
  }
  // --- GEMM: tiled matrix multiply-add; tiles live comfortably in the
  // L1D, RDs short, ratio just below the CS/CI threshold. ---
  if (abbr == "GEMM") {
    ProgramBuilder b(ScaledIters(16, scale));
    b.LoadShared(8, 6).Alu(110).LoadShared(16, 0).Alu(110);
    return Finish(abbr, b, 24);
  }
  // --- BT: B+tree lookups; hot inner nodes (Zipf) give a high hit rate
  // the way SRAD does, so Stall-Bypass hurts here too. ---
  if (abbr == "BT") {
    ProgramBuilder b(ScaledIters(12, scale));
    b.LoadIndirect(96, 0.9, 0xb101).Alu(110).LoadIndirect(8192, 0.2, 0xb102)
        .Alu(110)
        .LoadStream(4)
        .Alu(110);
    return Finish(abbr, b, 32);
  }
  throw std::out_of_range("not a CS application: " + std::string(abbr));
}

}  // namespace dlpsim
