#include "workloads/registry.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/parse.h"

namespace dlpsim {

// Defined in apps_cs.cpp / apps_ci.cpp.
Workload BuildCsApp(std::string_view abbr, double scale);
Workload BuildCiApp(std::string_view abbr, double scale);
bool IsCsApp(std::string_view abbr);
bool IsCiApp(std::string_view abbr);

const std::vector<AppInfo>& AllApps() {
  static const std::vector<AppInfo> kApps = {
      {"HG", "Histogram", "CUDA Samples", "67108864", false},
      {"HS", "Hotspot", "Rodinia", "512x512", false},
      {"STEN", "3-D Stencil Operation", "Parboil", "512x512x64", false},
      {"SC", "Separable Convolution", "Rodinia", "2048x512", false},
      {"BP", "Back Propagation", "Rodinia", "65536", false},
      {"SRAD", "Speckle Reducing Anisotropic Diffusion", "Rodinia",
       "512x512", false},
      {"NW", "Needleman-Wunsch", "Rodinia", "1024x1024", false},
      {"GEMM", "Matrix Multiply-add", "Polybench", "512x512x512", false},
      {"BT", "B+tree", "Rodinia", "6000x3000", false},
      {"CFD", "Computational Fluid Dynamics", "Rodinia", "97046", true},
      {"PVR", "Page View Rank", "Mars", "250000", true},
      {"SS", "Similarity Score", "Mars", "512x128", true},
      {"BFS", "Breadth-First Search", "Rodinia", "65536", true},
      {"MM", "Matrix Multiplication", "Mars", "256x256", true},
      {"SRK", "Symmetric Rank-k", "Polybench", "256x256", true},
      {"SR2K", "Symmetric Rank-2k", "Polybench", "256x256", true},
      {"KM", "K-means", "Rodinia", "204800", true},
      {"STR", "String Match", "Mars", "354984", true},
  };
  return kApps;
}

std::vector<std::string> AllAppAbbrs() {
  std::vector<std::string> out;
  for (const AppInfo& a : AllApps()) out.push_back(a.abbr);
  return out;
}

std::vector<std::string> CsAppAbbrs() {
  std::vector<std::string> out;
  for (const AppInfo& a : AllApps()) {
    if (!a.cache_insufficient) out.push_back(a.abbr);
  }
  return out;
}

std::vector<std::string> CiAppAbbrs() {
  std::vector<std::string> out;
  for (const AppInfo& a : AllApps()) {
    if (a.cache_insufficient) out.push_back(a.abbr);
  }
  return out;
}

namespace {
// The scales ScaleInRange accepts, for error messages.
std::string ScaleRange() {
  return "want a finite number above zero, at most " +
         std::to_string(0xffffffffu / kMaxBaseIterations);
}
}  // namespace

bool ScaleInRange(double scale) {
  return std::isfinite(scale) && scale > 0.0 && scale <= kMaxScale;
}

bool ParseScale(std::string_view text, double* scale, std::string* err) {
  double v = 0.0;
  if (ParsePositiveDouble(text, &v) && ScaleInRange(v)) {
    *scale = v;
    return true;
  }
  if (err != nullptr) {
    *err = "bad scale '" + std::string(text) + "': " + ScaleRange();
  }
  return false;
}

Workload MakeWorkload(std::string_view abbr, double scale) {
  if (!ScaleInRange(scale)) {
    throw ScaleError("bad scale " + std::to_string(scale) + ": " +
                     ScaleRange());
  }
  if (IsCsApp(abbr)) return BuildCsApp(abbr, scale);
  if (IsCiApp(abbr)) return BuildCiApp(abbr, scale);
  throw std::out_of_range("unknown application: " + std::string(abbr));
}

// ---------------------------------------------------------------------------
// ProgramBuilder
// ---------------------------------------------------------------------------

ProgramBuilder::ProgramBuilder(std::uint32_t iterations,
                               std::uint32_t warp_size)
    : program_(std::make_unique<Program>()),
      warp_size_(warp_size),
      iterations_(iterations == 0 ? 1 : iterations) {
  program_->set_iterations(iterations_);
}

ProgramBuilder& ProgramBuilder::Alu(std::uint32_t count) {
  program_->AddAlu(count);
  return *this;
}

ProgramBuilder& ProgramBuilder::Sfu(std::uint32_t count) {
  program_->AddSfu(count);
  return *this;
}

ProgramBuilder& ProgramBuilder::LoadStream(std::uint32_t lanes_per_line) {
  program_->AddLoad(std::make_unique<StreamingPattern>(
      NextBase(), lanes_per_line, warp_size_, iterations_));
  return *this;
}

ProgramBuilder& ProgramBuilder::LoadPrivate(std::uint64_t ws_lines,
                                            std::uint32_t lanes_per_line) {
  program_->AddLoad(std::make_unique<PrivateCyclicPattern>(
      NextBase(), lanes_per_line, warp_size_, ws_lines));
  return *this;
}

ProgramBuilder& ProgramBuilder::LoadShared(std::uint64_t tile_lines,
                                           std::uint32_t share_degree,
                                           std::uint32_t lanes_per_line) {
  program_->AddLoad(std::make_unique<SharedTilePattern>(
      NextBase(), lanes_per_line, warp_size_, tile_lines, share_degree));
  return *this;
}

ProgramBuilder& ProgramBuilder::LoadIndirect(std::uint64_t universe_lines,
                                             double zipf_s, std::uint64_t seed,
                                             std::uint32_t lanes_per_line) {
  program_->AddLoad(std::make_unique<IndirectPattern>(
      NextBase(), lanes_per_line, warp_size_, universe_lines, zipf_s, seed));
  return *this;
}

ProgramBuilder& ProgramBuilder::StoreStream(std::uint32_t lanes_per_line) {
  program_->AddStore(std::make_unique<StreamingPattern>(
      NextBase(), lanes_per_line, warp_size_, iterations_));
  return *this;
}

ProgramBuilder& ProgramBuilder::StorePrivate(std::uint64_t ws_lines,
                                             std::uint32_t lanes_per_line) {
  program_->AddStore(std::make_unique<PrivateCyclicPattern>(
      NextBase(), lanes_per_line, warp_size_, ws_lines));
  return *this;
}

ProgramBuilder& ProgramBuilder::StoreIndirect(std::uint64_t universe_lines,
                                              double zipf_s,
                                              std::uint64_t seed,
                                              std::uint32_t lanes_per_line) {
  program_->AddStore(std::make_unique<IndirectPattern>(
      NextBase(), lanes_per_line, warp_size_, universe_lines, zipf_s, seed));
  return *this;
}

std::unique_ptr<Program> ProgramBuilder::Build() {
  return std::move(program_);
}

}  // namespace dlpsim
