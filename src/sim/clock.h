// Multi-rate clock-domain scheduler.
//
// GPGPU-Sim advances its core, interconnect and memory clocks with a
// "next event" loop over the domains' periods; we reproduce that scheme.
// Each domain has a frequency; Tick() returns which domain(s) fire next
// in deterministic registration order, advancing simulated wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace dlpsim {

class ClockDomainSet {
 public:
  /// Registers a domain; returns its index. freq_mhz must be > 0.
  std::uint32_t AddDomain(std::string name, double freq_mhz);

  /// Advances simulated time to the next domain edge(s). All domains whose
  /// edge falls on that instant (within a slack of 1e-9 times the smallest
  /// period) fire together, in registration order. Returns indices of
  /// fired domains.
  const std::vector<std::uint32_t>& Tick();

  /// Number of ticks domain `idx` has received so far.
  Cycle cycles(std::uint32_t idx) const { return domains_[idx].cycles; }

  /// Current simulated time in nanoseconds.
  double now_ns() const { return now_ns_; }

  const std::string& name(std::uint32_t idx) const { return domains_[idx].name; }
  std::size_t num_domains() const { return domains_.size(); }

 private:
  struct Domain {
    std::string name;
    double period_ns = 1.0;
    double next_ns = 0.0;
    Cycle cycles = 0;
  };

  std::vector<Domain> domains_;
  std::vector<std::uint32_t> fired_;
  double now_ns_ = 0.0;
};

}  // namespace dlpsim
