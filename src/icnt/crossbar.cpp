#include "icnt/crossbar.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dlpsim {

namespace {
// Moves waiting packets into their delivery queues while a queue holds
// fewer than `cap`; records each destination that received one in
// `landed` and returns how many moved.
std::size_t AdmitWaiting(std::vector<Ring<IcntPacket>>& waits,
                         std::vector<Ring<IcntPacket>>& queues,
                         std::size_t cap, std::vector<std::uint32_t>& landed) {
  std::size_t moved = 0;
  for (std::size_t dst = 0; dst < waits.size(); ++dst) {
    Ring<IcntPacket>& wait = waits[dst];
    Ring<IcntPacket>& queue = queues[dst];
    if (wait.empty() || queue.size() >= cap) continue;
    landed.push_back(static_cast<std::uint32_t>(dst));
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
      num_cores_(num_cores),
      ports_(num_cores + num_partitions),
      done_at_(ports_.size(), kUnscheduled),
      busy_((ports_.size() + 63) / 64, 0),
      to_partition_(num_partitions),
      to_core_(num_cores),
      wait_to_partition_(num_partitions),
      wait_to_core_(num_cores) {}

void Crossbar::Inject(std::size_t i, const IcntPacket& pkt) {
  if (ports_[i].empty()) {
    busy_[i / 64] |= std::uint64_t{1} << (i % 64);
    new_heads_.push_back(static_cast<std::uint32_t>(i));
    next_due_ = 0;  // due until a Tick schedules the head
  }
  ports_[i].push_back(pkt);
}

void Crossbar::InjectFromCore(std::uint32_t core, const IcntPacket& pkt) {
  assert(CanInjectFromCore(core));
  bytes_core_to_mem += pkt.bytes;
  if (pkt.kind == IcntPacket::Kind::kOther) {
    bytes_other += pkt.bytes;
  } else {
    bytes_l1d += pkt.bytes;
  }
  Inject(core, pkt);
}

void Crossbar::InjectFromPartition(std::uint32_t part, const IcntPacket& pkt) {
  assert(CanInjectFromPartition(part));
  bytes_mem_to_core += pkt.bytes;
  bytes_l1d += pkt.bytes;
  Inject(num_cores_ + part, pkt);
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

void Crossbar::InjectStallFor(std::uint64_t cycles) {
  fault_stall_cycles_ += cycles;
  if (fault_stall_cycles_ > 0) next_due_ = 0;
}

Cycle Crossbar::SerializeCycles(std::uint32_t bytes) const {
  const std::uint32_t bw = cfg_.bytes_per_cycle_per_port;
  return bytes <= bw ? 1 : 1 + (bytes - 1) / bw;
}

Cycle Crossbar::EarliestWork() const {
  if (waiting_ > 0 || fault_stall_cycles_ > 0) return 0;
  Cycle due = flight_.empty() ? kNever : flight_.front().deliver_at;
  for (std::size_t word = 0; word < busy_.size(); ++word) {
    for (std::uint64_t bits = busy_[word]; bits != 0; bits &= bits - 1) {
      due = std::min(due, done_at_[word * 64 + std::countr_zero(bits)]);
    }
  }
  return due;
}

void Crossbar::Land(Ring<IcntPacket>& queue, const InFlight& f) {
  queue.push_back(f.pkt);
  (f.to_core ? landed_cores_ : landed_partitions_).push_back(f.pkt.dst);
  ++packets_delivered;
}

void Crossbar::Deliver(Cycle now) {
  // Nothing pops a delivery queue during Deliver, so once one due packet
  // for a destination is blocked, every later one is too. Waiting packets
  // therefore go first, in arrival order, and each packet lands on the
  // same cycle as under a rescan of every due packet.
  if (waiting_ > 0) {
    const std::size_t moved =
        AdmitWaiting(wait_to_partition_, to_partition_, kDeliveryQueueCap,
                     landed_partitions_) +
        AdmitWaiting(wait_to_core_, to_core_, kDeliveryQueueCap,
                     landed_cores_);
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
      Land(queue, f);
    } else {
      wait.push_back(f.pkt);
      ++waiting_;
    }
    flight_.pop_front();
  }
}

void Crossbar::Tick(Cycle now) {
  landed_cores_.clear();
  landed_partitions_.clear();
  // A head that arrived at an empty port since the last tick serializes
  // from this cycle on.
  for (std::uint32_t i : new_heads_) {
    done_at_[i] = now + SerializeCycles(ports_[i].front().bytes) - 1;
  }
  new_heads_.clear();
  if (fault_stall_cycles_ > 0) {
    // Injected fabric stall: the cycle passes with no movement at all, so
    // every head already serializing finishes one cycle later.
    --fault_stall_cycles_;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (!ports_[i].empty() && done_at_[i] != kUnscheduled) ++done_at_[i];
    }
    next_due_ = EarliestWork();
    return;
  }
  Cycle due = kNever;
  for (std::size_t word = 0; word < busy_.size(); ++word) {
    // The busy ports whose head finishes now, found without a branch per
    // port; the others only bound the next due cycle.
    std::uint64_t ready = 0;
    for (std::uint64_t bits = busy_[word]; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const Cycle at = done_at_[word * 64 + bit];
      const bool finishes = at <= now;
      ready |= std::uint64_t{finishes} << bit;
      due = std::min(due, finishes ? kNever : at);
    }
    port_visits += static_cast<std::uint64_t>(std::popcount(busy_[word]));
    // In index order, so heads finishing together enter flight_ in the
    // order a scan of every port gives them.
    for (; ready != 0; ready &= ready - 1) {
      const std::size_t i = word * 64 + std::countr_zero(ready);
      Ring<IcntPacket>& queue = ports_[i];
      // Head packet fully serialized this cycle; it arrives after the hop
      // latency and then waits for delivery-queue space.
      flight_.push_back(InFlight{queue.front(), now + cfg_.latency,
                                 /*to_core=*/i >= num_cores_});
      queue.pop_front();
      if (queue.empty()) {
        busy_[word] &= ~(std::uint64_t{1} << (i % 64));
        done_at_[i] = kUnscheduled;
        continue;
      }
      // The next head serializes from the next cycle on.
      done_at_[i] = now + SerializeCycles(queue.front().bytes);
      due = std::min(due, done_at_[i]);
    }
  }
  Deliver(now);
  if (waiting_ > 0) {
    due = 0;
  } else if (!flight_.empty()) {
    due = std::min(due, flight_.front().deliver_at);
  }
  next_due_ = due;
}

Crossbar::QueueDepths Crossbar::Depths() const {
  QueueDepths d;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    (i < num_cores_ ? d.core_inject : d.partition_inject) += ports_[i].size();
  }
  d.in_flight = flight_.size() + waiting_;
  for (const auto& q : to_partition_) d.to_partition += q.size();
  for (const auto& q : to_core_) d.to_core += q.size();
  return d;
}

bool Crossbar::Idle() const {
  if (!flight_.empty() || waiting_ > 0) return false;
  for (std::uint64_t word : busy_) {
    if (word != 0) return false;
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
