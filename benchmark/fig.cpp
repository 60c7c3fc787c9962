// fig_cs and fig_ci: regenerating the paper's figure grid.
//
// Every cell goes through exec::RunJobs + bench::SimulateUncached, the
// path the figure benches take with their result caches off, so nothing
// is memoized between passes. The two workloads split the paper's
// Table 2 classes because they stress different layers: cache-sufficient
// apps spend their host time in mostly idle interconnect and memory
// ticks, cache-insufficient apps in real L1D, icnt and DRAM traffic.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "obs/profiler.h"
#include "stats.h"
#include "verify/golden.h"
#include "workload.h"
#include "workloads/registry.h"

namespace dlpbench {

namespace {

using dlpsim::Metrics;
using dlpsim::exec::Job;
using dlpsim::exec::Stopwatch;
using dlpsim::obs::Phase;
using dlpsim::obs::PhaseStat;

constexpr std::size_t kJobs = 4;        // = nproc of the reference machine
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMinPasses = 3;
constexpr double kCsScale = 0.5;
constexpr double kCiScale = 0.25;
constexpr double kGoldenScale = 0.02;
constexpr double kGoldenRelTol = 1e-9;

struct Cell {
  Metrics metrics;
  double seconds = 0.0;
  double make_seconds = 0.0;  // MakeWorkload share (bare passes only)
  std::vector<std::pair<Phase, PhaseStat>> phases;  // profiled passes only
  std::string error;
};

/// Runs every cell of `grid` once, submitted to a kJobs-wide pool in
/// `order`, and returns the cells in grid order. A throwing cell comes
/// back with its error instead of aborting the pass.
template <typename Fn>
std::vector<Cell> RunPass(const std::vector<Job>& grid,
                          const std::vector<std::size_t>& order, Fn&& run) {
  std::vector<Job> submitted;
  for (const std::size_t i : order) submitted.push_back(grid[i]);
  std::vector<Cell> done = dlpsim::exec::RunJobs(
      submitted,
      [&run](const Job& job) {
        Cell cell;
        const Stopwatch clock;
        try {
          run(job, &cell);
        } catch (const std::exception& e) {
          cell.error = e.what();
        }
        cell.seconds = clock.Seconds();
        return cell;
      },
      kJobs);
  std::vector<Cell> cells(grid.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    cells[order[k]] = std::move(done[k]);
  }
  return cells;
}

/// The figure benches' cell: SimulateUncached with no resilience hooks.
auto Uncached(double scale) {
  return [scale](const Job& j, Cell* c) {
    c->metrics =
        dlpsim::bench::SimulateUncached(j.app, j.config, scale, {}).metrics;
  };
}

std::vector<std::size_t> Identity(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// Counts one operation per cell: it must have run and, when a reference
/// exists, reproduced the reference cell's Metrics exactly.
void CheckCells(Outcome& out, const std::vector<Job>& grid,
                const std::vector<Cell>& cells,
                const std::vector<Metrics>& reference, const char* pass) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string where =
        std::string(pass) + " " + grid[i].app + "/" + grid[i].config;
    if (!cells[i].error.empty()) {
      out.Op(false, where + ": " + cells[i].error);
    } else {
      out.Op(cells[i].metrics.ToText() == reference[i].ToText(),
             where + ": Metrics differ from the first pass");
    }
  }
}

/// The golden pre-check: the 18 apps x 5 configs at scale 0.02 must match
/// the committed snapshot cell by cell.
void CheckGolden(Outcome& out) {
  dlpsim::verify::GoldenSnapshot want;
  std::string error;
  if (!dlpsim::verify::LoadGoldenFile(DLPSIM_GOLDEN_FILE, &want, &error)) {
    out.Op(false, "golden snapshot: " + error);
    return;
  }
  const std::vector<Job> grid = dlpsim::exec::Grid(
      dlpsim::AllAppAbbrs(), {"base", "sb", "gp", "dlp", "32kb"});
  const std::vector<Cell> cells =
      RunPass(grid, Identity(grid.size()), Uncached(kGoldenScale));
  std::map<std::pair<std::string, std::string>, dlpsim::verify::GoldenEntry>
      by_cell;
  for (const auto& e : want.entries) by_cell[{e.app, e.config}] = e;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string where = "golden " + grid[i].app + "/" + grid[i].config;
    const auto it = by_cell.find({grid[i].app, grid[i].config});
    if (!cells[i].error.empty() || it == by_cell.end() ||
        want.scale != kGoldenScale) {
      out.Op(false, where + ": not run or not in the snapshot " +
                        cells[i].error);
      continue;
    }
    const dlpsim::verify::GoldenSnapshot w{kGoldenScale, {it->second}};
    const dlpsim::verify::GoldenSnapshot g{
        kGoldenScale, {dlpsim::verify::MakeGoldenEntry(
                          grid[i].app, grid[i].config, cells[i].metrics)}};
    const std::string diff = dlpsim::verify::DiffGolden(w, g, kGoldenRelTol);
    out.Op(diff.empty(), where + ": " + diff);
  }
}

/// Set-up: build every grid app's workload, then the golden pre-check.
double SetupOnce(Outcome& out, const std::vector<std::string>& apps,
                 double scale) {
  const Stopwatch clock;
  for (const std::string& app : apps) dlpsim::MakeWorkload(app, scale);
  CheckGolden(out);
  return clock.Seconds();
}

std::vector<Metrics> MetricsOf(const std::vector<Cell>& cells) {
  std::vector<Metrics> m;
  for (const Cell& c : cells) m.push_back(c.metrics);
  return m;
}

/// Sums the simulated counters of a pass into per-layer counts.
void AddSimulatedCounts(const std::vector<Metrics>& cells, Round* round) {
  Metrics t;
  for (const Metrics& m : cells) {
    for (const dlpsim::MetricsField& f : dlpsim::MetricsFields()) {
      t.*(f.member) += m.*(f.member);
    }
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  round->counts["gpu.core_cycles"] = static_cast<double>(t.core_cycles);
  round->counts["icnt.bytes"] = static_cast<double>(t.icnt_bytes_total);
  round->counts["mem.l2_accesses"] = static_cast<double>(t.l2_accesses);
  round->counts["mem.dram_reads"] = static_cast<double>(t.dram_reads);
  round->counts["core.l1d_accesses"] = static_cast<double>(t.l1d_accesses);
  round->counts["core.l1d_hit_rate"] = t.l1d_hit_rate();
  round->counts["core.bypass_frac"] = ratio(t.l1d_bypasses, t.l1d_accesses);
  round->counts["core.reservation_fail_frac"] =
      ratio(t.l1d_reservation_fails, t.l1d_accesses);
}

/// One traced round: an untraced pass, a traced SimulateUncached pass, a
/// bare GpuSimulator pass (no reuse-distance profiler) and the same bare
/// pass with an obs::Profiler per cell. All four must reproduce
/// `reference`.
Round TracedRound(Outcome& out, const std::vector<Job>& grid, double scale,
                  const std::vector<std::size_t>& order,
                  std::vector<Metrics>* reference, SpanLog& spans) {
  const auto uncached = Uncached(scale);
  Round round;

  Stopwatch clock;
  const std::vector<Cell> plain = RunPass(grid, order, uncached);
  const double plain_s = clock.Seconds();
  if (reference->empty()) *reference = MetricsOf(plain);
  CheckCells(out, grid, plain, *reference, "untraced pass");

  clock.Reset();
  std::vector<Cell> traced;
  {
    const ScopedSpan pass(spans, "fig.traced_pass");
    traced = RunPass(grid, order, [&](const Job& j, Cell* c) {
      const ScopedSpan cell(spans, "exec.cell", pass.id());
      uncached(j, c);
    });
  }
  const double traced_s = clock.Seconds();
  CheckCells(out, grid, traced, *reference, "traced pass");

  const auto bare = [&](bool profiled) {
    const ScopedSpan pass(spans,
                          profiled ? "fig.profiled_pass" : "fig.bare_pass");
    return RunPass(grid, order, [&](const Job& j, Cell* c) {
      const ScopedSpan cell(spans, "exec.cell", pass.id());
      const dlpsim::SimConfig cfg = dlpsim::bench::ConfigFor(j.config);
      const Stopwatch make_clock;
      dlpsim::Workload wl;
      {
        const ScopedSpan make(spans, "workloads.make", cell.id());
        wl = dlpsim::MakeWorkload(j.app, scale);
      }
      c->make_seconds = make_clock.Seconds();
      const ScopedSpan run(spans, "gpu.run", cell.id());
      dlpsim::GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
      dlpsim::obs::Profiler profiler;
      if (profiled) gpu.SetProfiler(&profiler);
      c->metrics = gpu.Run();
      if (profiled) c->phases = profiler.PhaseStats();
    });
  };
  clock.Reset();
  const std::vector<Cell> bare_cells = bare(false);
  const double bare_s = clock.Seconds();
  CheckCells(out, grid, bare_cells, *reference, "bare pass");
  clock.Reset();
  const std::vector<Cell> profiled_cells = bare(true);
  const double profiled_s = clock.Seconds();
  CheckCells(out, grid, profiled_cells, *reference, "profiled pass");

  std::vector<std::pair<Phase, PhaseStat>> phases;
  for (const Cell& c : profiled_cells) {
    phases.insert(phases.end(), c.phases.begin(), c.phases.end());
  }
  AddPhaseStats(phases, &round);
  AddSimulatedCounts(*reference, &round);

  std::vector<double> cell_s;
  double uncached_sum = 0.0;
  for (const Cell& c : traced) {
    cell_s.push_back(c.seconds);
    uncached_sum += c.seconds;
  }
  double bare_sum = 0.0;
  double make_sum = 0.0;
  for (const Cell& c : bare_cells) {
    bare_sum += c.seconds;
    make_sum += c.make_seconds;
  }
  round.times["exec.cell_p50_s"] = Median(cell_s);
  round.times["exec.cell_max_s"] =
      *std::max_element(cell_s.begin(), cell_s.end());
  round.times["exec.busy_frac"] = uncached_sum / (kJobs * traced_s);
  round.times["analysis.rd_profile_frac"] = 1.0 - bare_sum / uncached_sum;
  round.times["workloads.make_s"] = make_sum;
  round.times["obs.profiler_overhead_frac"] = profiled_s / bare_s - 1.0;
  round.times["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0;
  return round;
}

}  // namespace

Outcome RunFig(const Options& opt, bool cache_insufficient, SpanLog& spans) {
  Outcome out;
  const std::vector<std::string> apps =
      cache_insufficient ? dlpsim::CiAppAbbrs() : dlpsim::CsAppAbbrs();
  const double scale = cache_insufficient ? kCiScale : kCsScale;
  const std::vector<Job> grid =
      dlpsim::exec::Grid(apps, dlpsim::bench::ConfigNames());

  const std::vector<double> setups = TimeSetups(
      opt, kSetupReps, [&] { return SetupOnce(out, apps, scale); });
  out.Set("setup_s", Median(setups), setups.size());

  dlpsim::Rng rng(opt.seed);
  std::vector<Metrics> reference;
  if (!opt.trace) {
    PassLoop loop(opt.seconds, kMinPasses, opt.host);
    while (loop.More()) {
      const std::vector<std::size_t> order = Shuffled(grid.size(), rng);
      const Stopwatch clock;
      const std::vector<Cell> cells = RunPass(grid, order, Uncached(scale));
      loop.Record(clock.Seconds());
      if (reference.empty()) reference = MetricsOf(cells);
      CheckCells(out, grid, cells, reference, "timed pass");
    }
    out.times.walls = loop.passes();
    out.times.host = loop.HostFactors();
    std::uint64_t cycles = 0;
    for (const Metrics& m : reference) cycles += m.core_cycles;
    const double wall = ReportPassTimes(out);
    out.Set("events_per_s", static_cast<double>(cycles) / wall,
            out.times.walls.size());
  } else {
    PassLoop loop(opt.seconds, 1);
    std::vector<Round> rounds;
    while (loop.More()) {
      const Stopwatch clock;
      rounds.push_back(TracedRound(out, grid, scale,
                                   Shuffled(grid.size(), rng), &reference,
                                   spans));
      loop.Record(clock.Seconds());
    }
    ReportRounds(out, rounds);
  }

  for (std::size_t i = 0; i < grid.size() && i < reference.size(); ++i) {
    out.digest_input += grid[i].app + " " + grid[i].config + "\n" +
                        reference[i].ToText();
  }
  return out;
}

}  // namespace dlpbench
