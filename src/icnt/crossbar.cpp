#include "icnt/crossbar.h"

#include <cassert>

namespace dlpsim {

namespace {
// Moves waiting packets into their delivery queues while a queue holds
// fewer than `cap`; returns how many moved.
std::size_t AdmitWaiting(std::vector<std::deque<IcntPacket>>& waits,
                         std::vector<std::deque<IcntPacket>>& queues,
                         std::size_t cap) {
  std::size_t moved = 0;
  for (std::size_t dst = 0; dst < waits.size(); ++dst) {
    std::deque<IcntPacket>& wait = waits[dst];
    std::deque<IcntPacket>& queue = queues[dst];
    for (; !wait.empty() && queue.size() < cap; ++moved) {
      queue.push_back(wait.front());
      wait.pop_front();
    }
  }
  return moved;
}
}  // namespace

Crossbar::Crossbar(const IcntConfig& cfg, std::uint32_t num_cores,
                   std::uint32_t num_partitions)
    : cfg_(cfg),
      core_ports_(num_cores),
      partition_ports_(num_partitions),
      to_partition_(num_partitions),
      to_core_(num_cores),
      wait_to_partition_(num_partitions),
      wait_to_core_(num_cores) {}

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

void Crossbar::InjectFromPartition(std::uint32_t part, const IcntPacket& pkt) {
  assert(CanInjectFromPartition(part));
  bytes_mem_to_core += pkt.bytes;
  bytes_l1d += pkt.bytes;
  partition_ports_[part].queue.push_back(pkt);
}

IcntPacket Crossbar::PopForCore(std::uint32_t core) {
  assert(HasForCore(core));
  IcntPacket pkt = to_core_[core].front();
  to_core_[core].pop_front();
  return pkt;
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
  // Nothing pops a delivery queue during Deliver, so once one due packet
  // for a destination is blocked, every later one is too. Waiting packets
  // therefore go first, in arrival order, and each packet lands on the
  // same cycle as under a rescan of every due packet.
  if (waiting_ > 0) {
    const std::size_t moved =
        AdmitWaiting(wait_to_partition_, to_partition_, kDeliveryQueueCap) +
        AdmitWaiting(wait_to_core_, to_core_, kDeliveryQueueCap);
    waiting_ -= moved;
    packets_delivered += moved;
  }
  // The hop latency is constant, so flight_ (FIFO by serialization
  // completion) is ordered by deliver_at and only its prefix is due.
  while (!flight_.empty() && flight_.front().deliver_at <= now) {
    const InFlight& f = flight_.front();
    auto& queue = (f.to_core ? to_core_ : to_partition_)[f.pkt.dst];
    auto& wait = (f.to_core ? wait_to_core_ : wait_to_partition_)[f.pkt.dst];
    if (queue.size() < kDeliveryQueueCap) {
      // A non-empty wait FIFO implies a full queue: no packet passes one.
      assert(wait.empty());
      queue.push_back(f.pkt);
      ++packets_delivered;
    } else {
      wait.push_back(f.pkt);
      ++waiting_;
    }
    flight_.pop_front();
  }
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
  d.in_flight = flight_.size() + waiting_;
  for (const auto& q : to_partition_) d.to_partition += q.size();
  for (const auto& q : to_core_) d.to_core += q.size();
  return d;
}

bool Crossbar::Idle() const {
  if (!flight_.empty() || waiting_ > 0) return false;
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
