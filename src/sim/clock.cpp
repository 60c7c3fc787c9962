#include "sim/clock.h"

#include <cassert>
#include <limits>

namespace dlpsim {

std::uint32_t ClockDomainSet::AddDomain(std::string name, double freq_mhz) {
  assert(freq_mhz > 0.0);
  Domain d;
  d.name = std::move(name);
  d.period_ns = 1000.0 / freq_mhz;
  d.next_ns = d.period_ns;
  domains_.push_back(std::move(d));
  return static_cast<std::uint32_t>(domains_.size() - 1);
}

const std::vector<std::uint32_t>& ClockDomainSet::Tick() {
  fired_.clear();
  assert(!domains_.empty());

  double min_next = std::numeric_limits<double>::infinity();
  double min_period = std::numeric_limits<double>::infinity();
  for (const Domain& d : domains_) {
    if (d.next_ns < min_next) min_next = d.next_ns;
    if (d.period_ns < min_period) min_period = d.period_ns;
  }
  // Domains whose edge is within 1e-9 times the fastest period of the
  // earliest edge fire together; this keeps 1:1 domains (core/icnt) in
  // lockstep despite floating-point drift.
  const double slack = min_period * 1e-9;
  now_ns_ = min_next;
  for (std::uint32_t i = 0; i < domains_.size(); ++i) {
    Domain& d = domains_[i];
    if (d.next_ns <= min_next + slack) {
      d.cycles++;
      // Recompute from an integer cycle count to avoid cumulative error.
      d.next_ns = static_cast<double>(d.cycles + 1) * d.period_ns;
      fired_.push_back(i);
    }
  }
  return fired_;
}

const std::vector<std::uint32_t>& ClockDomainSet::TickUntil(
    const std::vector<Cycle>& due) {
  assert(due.size() == domains_.size());
  for (;;) {
    const std::vector<std::uint32_t>& fired = Tick();
    for (std::uint32_t i : fired) {
      if (domains_[i].cycles >= due[i]) return fired;
    }
    edges_skipped_ += fired.size();
  }
}

}  // namespace dlpsim
