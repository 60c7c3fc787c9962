#include "mem/dram.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

DramChannel::DramChannel(const DramConfig& cfg, std::uint32_t line_bytes)
    : cfg_(cfg),
      line_bytes_(line_bytes),
      lines_per_row_(std::max(1u, cfg.row_bytes / line_bytes)),
      banks_(cfg.banks) {}

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
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Queued& q = queue_[i];
    Bank& bank = banks_[q.bank];
    if (bank.busy_until > now) continue;
    const bool row_hit = bank.open_row == q.row;
    row_hit ? ++row_hits : ++row_misses;
    const Cycle latency = row_hit ? cfg_.t_row_hit : cfg_.t_row_miss;
    const Cycle occupancy = row_hit ? burst : cfg_.t_rc + burst;
    bank.open_row = q.row;
    bank.busy_until = now + occupancy;
    bus_busy_until_ = std::max(bus_busy_until_, now + latency) + burst;
    const Request& req = q.req;
    req.write ? ++writes : ++reads;
    in_service_.push_back(
        InService{Completion{req.block, req.write, req.tag}, bus_busy_until_});
    queue_.erase(i);
    break;
  }
  first_bank_free_ = std::numeric_limits<Cycle>::max();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    first_bank_free_ =
        std::min(first_bank_free_, banks_[queue_[i].bank].busy_until);
  }
}

void DramChannel::Tick(Cycle now, std::vector<Completion>& done) {
  if (first_bank_free_ <= now) IssueFirstReady(now);

  while (!in_service_.empty() && in_service_.front().done_at <= now) {
    done.push_back(in_service_.front().completion);
    in_service_.pop_front();
  }
}

}  // namespace dlpsim
