#include "workload.h"

#include <unistd.h>

#include <atomic>
#include <stdexcept>

#include "stats.h"

namespace dlpbench {

void Outcome::Op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

double ReportPassTimes(Outcome& out) {
  std::vector<double> walls;
  for (std::size_t p = 0; p < out.times.walls.size(); ++p) {
    walls.push_back(out.times.walls[p] / out.times.host[p]);
  }
  const double wall = Median(walls);
  out.Set("wall_s", wall, walls.size());
  return wall;
}

std::vector<double> TimeSetups(const Options& opt, std::size_t reps,
                               const std::function<double()>& setup) {
  std::vector<double> seconds;
  std::vector<std::pair<double, double>> spans;
  for (std::size_t i = 0; i < reps; ++i) {
    if (!opt.trace) opt.host->Sample();
    const double start = opt.host->Now();
    seconds.push_back(setup());
    spans.emplace_back(start, opt.host->Now());
  }
  if (!opt.trace) opt.host->Sample();
  for (std::size_t i = 0; i < reps; ++i) {
    seconds[i] /= opt.host->FactorOver(spans[i].first, spans[i].second);
  }
  return seconds;
}

namespace {

/// The per-layer metric prefix of a profiler phase.
const char* LayerOf(dlpsim::obs::Phase phase) {
  using dlpsim::obs::Phase;
  switch (phase) {
    case Phase::kRun:
      return "gpu.run";
    case Phase::kDrainCheck:
      return "gpu.drain_check";
    case Phase::kCoreTick:
      return "sm.core_tick";
    case Phase::kIcntTick:
      return "icnt.tick";
    case Phase::kMemTick:
      return "mem.tick";
    case Phase::kCacheAccess:
      return "core.cache_access";
    case Phase::kPolicyUpdate:
      return "core.policy_update";
    case Phase::kSnapshot:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

void AddPhaseStats(
    const std::vector<std::pair<dlpsim::obs::Phase, dlpsim::obs::PhaseStat>>&
        stats,
    Round* round) {
  std::map<std::string, dlpsim::obs::PhaseStat> sums;
  for (const auto& [phase, stat] : stats) {
    if (const char* layer = LayerOf(phase)) {
      sums[layer].calls += stat.calls;
      sums[layer].self_seconds += stat.self_seconds;
    }
  }
  for (const auto& [layer, stat] : sums) {
    round->counts[layer + ".calls"] = static_cast<double>(stat.calls);
    round->times[layer + ".self_s"] = stat.self_seconds;
    round->times[layer + ".ns_per_call"] =
        stat.calls == 0 ? 0.0 : stat.self_seconds * 1e9 / stat.calls;
  }
}

void ReportRounds(Outcome& out, const std::vector<Round>& rounds) {
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    out.Op(rounds[r].counts == rounds.front().counts,
           "per-layer counts changed between traced rounds");
  }
  for (const auto& [name, value] : rounds.front().counts) out.Set(name, value);
  for (const auto& [name, value] : rounds.front().times) {
    std::vector<double> values;
    for (const Round& r : rounds) values.push_back(r.times.at(name));
    out.Set(name, Median(values), values.size());
  }
}

std::vector<std::size_t> Shuffled(std::size_t n, dlpsim::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

bool PassLoop::More() {
  const bool more = passes_.size() < min_passes_ ||
                    clock_.Seconds() + Median(passes_) <= seconds_;
  if (host_ == nullptr) return more;
  if (more) {
    host_->SampleEvery(1.0);
    pass_start_ = host_->Now();
  } else {
    host_->Sample();
  }
  return more;
}

void PassLoop::Record(double pass_seconds) {
  passes_.push_back(pass_seconds);
  if (host_ != nullptr) spans_.emplace_back(pass_start_, host_->Now());
}

std::vector<double> PassLoop::HostFactors() const {
  std::vector<double> factors(passes_.size(), 1.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    factors[i] = host_->FactorOver(spans_[i].first, spans_[i].second);
  }
  return factors;
}

ScratchDir::ScratchDir(const std::string& label) {
  static std::atomic<int> counter{0};
  path_ = std::filesystem::path(BENCH_SCRATCH_DIR) /
          (label + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter++));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace dlpbench
