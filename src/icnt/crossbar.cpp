#include "icnt/crossbar.h"

#include <cassert>

namespace dlpsim {

Crossbar::Crossbar(const IcntConfig& cfg, std::uint32_t num_cores,
                   std::uint32_t num_partitions)
    : cfg_(cfg),
      core_ports_(num_cores),
      partition_ports_(num_partitions),
      to_partition_(num_partitions),
      to_core_(num_cores) {}

bool Crossbar::CanInjectFromCore(std::uint32_t core) const {
  return core_ports_[core].queue.size() < kInjectQueueCap;
}

void Crossbar::InjectFromCore(std::uint32_t core, const IcntPacket& pkt) {
  assert(CanInjectFromCore(core));
  bytes_core_to_mem += pkt.bytes;
  if (pkt.kind == IcntPacket::Kind::kOther) {
    bytes_other += pkt.bytes;
  } else {
    bytes_l1d += pkt.bytes;
  }
  core_ports_[core].queue.push_back(pkt);
}

bool Crossbar::CanInjectFromPartition(std::uint32_t part) const {
  return partition_ports_[part].queue.size() < kInjectQueueCap;
}

void Crossbar::InjectFromPartition(std::uint32_t part, const IcntPacket& pkt) {
  assert(CanInjectFromPartition(part));
  bytes_mem_to_core += pkt.bytes;
  bytes_l1d += pkt.bytes;
  partition_ports_[part].queue.push_back(pkt);
}

bool Crossbar::HasForCore(std::uint32_t core) const {
  return !to_core_[core].empty();
}

IcntPacket Crossbar::PopForCore(std::uint32_t core) {
  assert(HasForCore(core));
  IcntPacket pkt = to_core_[core].front();
  to_core_[core].pop_front();
  return pkt;
}

bool Crossbar::HasForPartition(std::uint32_t part) const {
  return !to_partition_[part].empty();
}

IcntPacket Crossbar::PopForPartition(std::uint32_t part) {
  assert(HasForPartition(part));
  IcntPacket pkt = to_partition_[part].front();
  to_partition_[part].pop_front();
  return pkt;
}

void Crossbar::TickPort(Port& port, bool to_core, Cycle now) {
  if (port.queue.empty()) return;
  const IcntPacket& head = port.queue.front();
  port.sent_bytes += cfg_.bytes_per_cycle_per_port;
  if (port.sent_bytes < head.bytes) return;
  // Head packet fully serialized this cycle; it arrives after the hop
  // latency and then waits for delivery-queue space.
  flight_.push_back(InFlight{head, now + cfg_.latency, to_core});
  port.queue.pop_front();
  port.sent_bytes = 0;
}

void Crossbar::Deliver(Cycle now) {
  // The hop latency is constant, so flight_ (FIFO by serialization
  // completion) is ordered by deliver_at and only its prefix is due.
  // Deliver every due packet whose destination queue has room. Blocked
  // packets are compacted to the front in order; they block later arrivals
  // to the same queue, which preserves point-to-point ordering.
  std::size_t kept = 0;
  std::size_t due = 0;
  for (; due < flight_.size() && flight_[due].deliver_at <= now; ++due) {
    const InFlight& f = flight_[due];
    auto& queue = (f.to_core ? to_core_ : to_partition_)[f.pkt.dst];
    if (queue.size() < kDeliveryQueueCap) {
      queue.push_back(f.pkt);
      ++packets_delivered;
    } else {
      if (kept != due) flight_[kept] = f;
      ++kept;
    }
  }
  flight_.erase(flight_.begin() + static_cast<std::ptrdiff_t>(kept),
                flight_.begin() + static_cast<std::ptrdiff_t>(due));
}

void Crossbar::Tick(Cycle now) {
  if (fault_stall_cycles_ > 0) {
    // Injected fabric stall: the cycle passes with no movement at all.
    --fault_stall_cycles_;
    return;
  }
  for (Port& p : core_ports_) TickPort(p, /*to_core=*/false, now);
  for (Port& p : partition_ports_) TickPort(p, /*to_core=*/true, now);
  Deliver(now);
}

Crossbar::QueueDepths Crossbar::Depths() const {
  QueueDepths d;
  for (const Port& p : core_ports_) d.core_inject += p.queue.size();
  for (const Port& p : partition_ports_) d.partition_inject += p.queue.size();
  d.in_flight = flight_.size();
  for (const auto& q : to_partition_) d.to_partition += q.size();
  for (const auto& q : to_core_) d.to_core += q.size();
  return d;
}

bool Crossbar::Idle() const {
  if (!flight_.empty()) return false;
  for (const Port& p : core_ports_) {
    if (!p.queue.empty()) return false;
  }
  for (const Port& p : partition_ports_) {
    if (!p.queue.empty()) return false;
  }
  for (const auto& q : to_partition_) {
    if (!q.empty()) return false;
  }
  for (const auto& q : to_core_) {
    if (!q.empty()) return false;
  }
  return true;
}

}  // namespace dlpsim
