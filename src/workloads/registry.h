// The 18 benchmark applications of Table 2, as synthetic kernels whose
// per-PC reuse-distance profiles and memory-access ratios are calibrated
// to the paper's Figs. 3, 6 and 7 (see DESIGN.md for the substitution
// rationale).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/program.h"

namespace dlpsim {

struct AppInfo {
  std::string abbr;   // "HG"
  std::string name;   // "Histogram"
  std::string suite;  // "CUDA Samples"
  std::string input;  // Table 2 input column
  bool cache_insufficient = false;  // CI vs CS (paper's 1% ratio threshold)
};

struct Workload {
  AppInfo info;
  std::unique_ptr<Program> program;
  std::uint32_t warps_per_sm = 48;
};

/// Table 2, in paper order (9 CS then 9 CI).
const std::vector<AppInfo>& AllApps();

/// Abbreviations only, optionally filtered.
std::vector<std::string> AllAppAbbrs();
std::vector<std::string> CsAppAbbrs();
std::vector<std::string> CiAppAbbrs();

/// The largest base iteration count of any app; each app's count is
/// base * scale, rounded down, at least 1.
inline constexpr std::uint32_t kMaxBaseIterations = 200;
/// The largest scale MakeWorkload accepts: every app's iteration count
/// then still fits its 32-bit field.
inline constexpr double kMaxScale =
    static_cast<double>(0xffffffffu / kMaxBaseIterations);

/// Whether MakeWorkload accepts `scale`: finite, above zero and at most
/// kMaxScale.
bool ScaleInRange(double scale);

/// Parses all of `text` as a scale MakeWorkload accepts: the syntax of
/// ParsePositiveDouble (sim/parse.h), within ScaleInRange. On failure
/// returns false, leaves `*scale` untouched and, when `err` is given,
/// sets it to "bad scale '<text>': " and the accepted range. Request and
/// command-line parsers use it, so a bad scale never reaches a worker.
bool ParseScale(std::string_view text, double* scale,
                std::string* err = nullptr);

/// Thrown by MakeWorkload for a scale outside ScaleInRange.
class ScaleError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Builds a workload. `scale` multiplies the iteration count (tests use
/// small scales for speed); throws ScaleError for a scale outside
/// ScaleInRange and std::out_of_range for unknown abbrs.
Workload MakeWorkload(std::string_view abbr, double scale = 1.0);

/// Helper used by the app builders (exposed for custom workloads and
/// tests): running context that hands each pattern a disjoint 4 GiB
/// address region so patterns never alias.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::uint32_t iterations,
                          std::uint32_t warp_size = 32);

  ProgramBuilder& Alu(std::uint32_t count);
  ProgramBuilder& Sfu(std::uint32_t count);

  // Memory instructions; `lanes_per_line` controls coalescing (32 = one
  // transaction per warp instruction).
  ProgramBuilder& LoadStream(std::uint32_t lanes_per_line = 32);
  ProgramBuilder& LoadPrivate(std::uint64_t ws_lines,
                              std::uint32_t lanes_per_line = 32);
  ProgramBuilder& LoadShared(std::uint64_t tile_lines,
                             std::uint32_t share_degree,
                             std::uint32_t lanes_per_line = 32);
  ProgramBuilder& LoadIndirect(std::uint64_t universe_lines, double zipf_s,
                               std::uint64_t seed,
                               std::uint32_t lanes_per_line = 32);
  ProgramBuilder& StoreStream(std::uint32_t lanes_per_line = 32);
  ProgramBuilder& StorePrivate(std::uint64_t ws_lines,
                               std::uint32_t lanes_per_line = 32);
  ProgramBuilder& StoreIndirect(std::uint64_t universe_lines, double zipf_s,
                                std::uint64_t seed,
                                std::uint32_t lanes_per_line = 32);

  std::unique_ptr<Program> Build();

 private:
  Addr NextBase() { return static_cast<Addr>(region_++) << 32; }

  std::unique_ptr<Program> program_;
  std::uint32_t warp_size_;
  std::uint32_t iterations_;
  std::uint32_t region_ = 1;
};

}  // namespace dlpsim
