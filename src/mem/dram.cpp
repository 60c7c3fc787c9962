#include "mem/dram.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace dlpsim {

DramChannel::DramChannel(const DramConfig& cfg, std::uint32_t line_bytes)
    : cfg_(cfg),
      line_bytes_(line_bytes),
      lines_per_row_(std::max(1u, cfg.row_bytes / line_bytes)),
      banks_(cfg.banks),
      m_reads_(obs::Registry::Global().GetCounter(
          "mem", "dram_reads", "DRAM read commands issued")),
      m_writes_(obs::Registry::Global().GetCounter(
          "mem", "dram_writes", "DRAM write commands issued")) {}

std::uint32_t DramChannel::BankOf(Addr block) const {
  // Row-granular interleave: consecutive lines share a row (streaming
  // gets row hits), consecutive rows rotate across banks.
  return static_cast<std::uint32_t>((block / lines_per_row_) % cfg_.banks);
}

std::uint64_t DramChannel::RowOf(Addr block) const {
  return (block / lines_per_row_) / cfg_.banks;
}

void DramChannel::Enqueue(const Request& req) {
  assert(CanAccept());
  const std::uint32_t bank = BankOf(req.block);
  queue_.push_back(Queued{req, bank, RowOf(req.block)});
  first_bank_free_ = std::min(first_bank_free_, banks_[bank].busy_until);
}

void DramChannel::IssueFirstReady(Cycle now) {
  // Issue at most one command per cycle to the first queued request whose
  // bank is free (first-ready scheduling; the bounded queue prevents
  // unbounded starvation of blocked-bank requests).
  //
  // Latency and occupancy are separate: a row hit keeps the bank busy for
  // only the burst (column accesses pipeline), a row miss additionally
  // occupies it for the precharge+activate window; the requester sees the
  // full t_row_hit / t_row_miss latency plus shared-data-bus queueing.
  const Cycle burst = std::max<Cycle>(
      1, (line_bytes_ + cfg_.bus_bytes_per_cycle - 1) /
             cfg_.bus_bytes_per_cycle);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    Bank& bank = banks_[it->bank];
    if (bank.busy_until > now) continue;
    const bool row_hit = bank.open_row == it->row;
    row_hit ? ++row_hits : ++row_misses;
    const Cycle latency = row_hit ? cfg_.t_row_hit : cfg_.t_row_miss;
    const Cycle occupancy = row_hit ? burst : cfg_.t_rc + burst;
    bank.open_row = it->row;
    bank.busy_until = now + occupancy;
    bus_busy_until_ = std::max(bus_busy_until_, now + latency) + burst;
    const Request& req = it->req;
    req.write ? ++writes : ++reads;
    (req.write ? m_writes_ : m_reads_)->Add();
    in_service_.push_back(
        InService{Completion{req.block, req.write, req.tag}, bus_busy_until_});
    queue_.erase(it);
    break;
  }
  first_bank_free_ = std::numeric_limits<Cycle>::max();
  for (const Queued& q : queue_) {
    first_bank_free_ = std::min(first_bank_free_, banks_[q.bank].busy_until);
  }
}

std::vector<DramChannel::Completion> DramChannel::Tick(Cycle now) {
  if (first_bank_free_ <= now) IssueFirstReady(now);

  std::vector<Completion> done;
  while (!in_service_.empty() && in_service_.front().done_at <= now) {
    done.push_back(in_service_.front().completion);
    in_service_.pop_front();
  }
  return done;
}

void DramChannel::RegisterStats(StatRegistry& reg,
                                const std::string& prefix) const {
  reg.Register(prefix + ".reads", &reads);
  reg.Register(prefix + ".writes", &writes);
  reg.Register(prefix + ".row_hits", &row_hits);
  reg.Register(prefix + ".row_misses", &row_misses);
}

}  // namespace dlpsim
