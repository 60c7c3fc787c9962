// Simplified GDDR5 DRAM channel model: per-bank row buffers with
// open-page policy, bank busy times for row hits vs misses, and a shared
// data bus whose occupancy bounds the partition's bandwidth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/config.h"
#include "sim/ring.h"
#include "sim/types.h"

namespace dlpsim {

class DramChannel {
 public:
  DramChannel(const DramConfig& cfg, std::uint32_t line_bytes);

  struct Request {
    Addr block = 0;     // line index within the global space
    bool write = false;
    std::uint64_t tag = 0;  // opaque id returned on completion (reads)
  };

  struct Completion {
    Addr block = 0;
    bool write = false;
    std::uint64_t tag = 0;
  };

  bool CanAccept() const { return queue_.size() < kQueueCap; }
  void Enqueue(const Request& req);

  /// Advances one memory-domain cycle; appends the completions that
  /// finished at or before `now` to `done`.
  void Tick(Cycle now, std::vector<Completion>& done);

  /// The earliest memory cycle on which Tick does anything: a queued
  /// request's bank comes free, or the oldest request in service
  /// completes. Tick is a no-op before it (max while Idle()).
  Cycle NextEvent() const {
    return in_service_.empty()
               ? first_bank_free_
               : std::min(first_bank_free_, in_service_.front().done_at);
  }

  bool Idle() const { return queue_.empty() && in_service_.empty(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t in_service_depth() const { return in_service_.size(); }

  /// An issued request and the memory cycle it completes on.
  struct InService {
    Completion completion;
    Cycle done_at = 0;
  };
  /// Issued requests in issue order (the invariant checker verifies that
  /// they complete in that order).
  const Ring<InService>& in_service() const { return in_service_; }
  /// White-box tests only: plants the disorder the checker must catch.
  Ring<InService>& mutable_in_service() { return in_service_; }

  // --- derived mapping (exposed for tests) ---
  std::uint32_t BankOf(Addr block) const;
  std::uint64_t RowOf(Addr block) const;

  // --- statistics ---
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

 private:
  struct Bank {
    Cycle busy_until = 0;
    std::uint64_t open_row = ~0ull;
  };

  struct Queued {
    Request req;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
  };

  /// Issues at most one queued request whose bank is free at `now`.
  void IssueFirstReady(Cycle now);

  DramConfig cfg_;
  std::uint32_t line_bytes_;
  std::uint32_t lines_per_row_;
  Ring<Queued> queue_;
  std::vector<Bank> banks_;
  // done_at is bus_busy_until_ at issue, which only grows: FIFO by done_at.
  Ring<InService> in_service_;
  Cycle bus_busy_until_ = 0;
  // Earliest busy_until among the banks of queued requests (max when the
  // queue is empty): before that cycle no queued request can issue.
  Cycle first_bank_free_ = std::numeric_limits<Cycle>::max();

  static constexpr std::size_t kQueueCap = 32;
};

}  // namespace dlpsim
