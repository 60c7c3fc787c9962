// Simplified GDDR5 DRAM channel model: per-bank row buffers with
// open-page policy, bank busy times for row hits vs misses, and a shared
// data bus whose occupancy bounds the partition's bandwidth.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace dlpsim {

namespace obs {
class Counter;
}  // namespace obs

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

  /// Advances one memory-domain cycle; returns completions that finished
  /// at or before `now`.
  std::vector<Completion> Tick(Cycle now);

  bool Idle() const { return queue_.empty() && in_service_.empty(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t in_service_depth() const { return in_service_.size(); }

  // --- derived mapping (exposed for tests) ---
  std::uint32_t BankOf(Addr block) const;
  std::uint64_t RowOf(Addr block) const;

  // --- statistics ---
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

  void RegisterStats(StatRegistry& reg, const std::string& prefix) const;

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

  struct InService {
    Completion completion;
    Cycle done_at = 0;
  };

  /// Issues at most one queued request whose bank is free at `now`.
  void IssueFirstReady(Cycle now);

  DramConfig cfg_;
  std::uint32_t line_bytes_;
  std::uint32_t lines_per_row_;
  std::deque<Queued> queue_;
  std::vector<Bank> banks_;
  // done_at is bus_busy_until_ at issue, which only grows: FIFO by done_at.
  std::deque<InService> in_service_;
  Cycle bus_busy_until_ = 0;
  // Earliest busy_until among the banks of queued requests (max when the
  // queue is empty): before that cycle no queued request can issue.
  Cycle first_bank_free_ = std::numeric_limits<Cycle>::max();
  obs::Counter* m_reads_ = nullptr;   // mem.dram_reads
  obs::Counter* m_writes_ = nullptr;  // mem.dram_writes

  static constexpr std::size_t kQueueCap = 32;
};

}  // namespace dlpsim
