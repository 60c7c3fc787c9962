#include "exec/timing.h"

#include "obs/json.h"

namespace dlpsim::exec {

void TimingLog::Record(TimingCell cell) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back(std::move(cell));
}

double TimingLog::ElapsedSeconds() const { return lifetime_.Seconds(); }

std::vector<TimingCell> TimingLog::cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_;
}

std::size_t TimingLog::FailedCells() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const TimingCell& c : cells_) {
    if (c.failed) ++n;
  }
  return n;
}

void TimingLog::WriteJson(std::ostream& os, const std::string& bench,
                          std::size_t jobs, double scale) const {
  const std::vector<TimingCell> cells = this->cells();
  double sim_total = 0.0;
  std::size_t simulated = 0;
  std::size_t cached = 0;
  std::size_t failed = 0;
  for (const TimingCell& c : cells) {
    if (c.failed) {
      ++failed;
    } else if (c.cached) {
      ++cached;
    } else {
      ++simulated;
      sim_total += c.seconds;
    }
  }

  JsonWriter w(os);
  w.BeginObject();
  w.KV("bench", bench);
  w.KV("jobs", static_cast<std::uint64_t>(jobs));
  w.KV("scale", scale);
  w.KV("wall_seconds", ElapsedSeconds());
  w.KV("sim_seconds_total", sim_total);
  w.KV("cells_simulated", static_cast<std::uint64_t>(simulated));
  w.KV("cells_cached", static_cast<std::uint64_t>(cached));
  w.KV("cells_failed", static_cast<std::uint64_t>(failed));
  w.Key("cells");
  w.BeginArray();
  for (const TimingCell& c : cells) {
    w.BeginObject();
    w.KV("app", c.app);
    w.KV("config", c.config);
    w.KV("seconds", c.seconds);
    w.KV("cached", c.cached);
    if (c.failed) {
      w.KV("failed", true);
      w.KV("error", c.error);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

}  // namespace dlpsim::exec
