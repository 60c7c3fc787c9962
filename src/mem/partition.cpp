#include "mem/partition.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

MemoryPartition::MemoryPartition(const SimConfig& cfg, PartitionId id)
    : cfg_(cfg),
      id_(id),
      l2_(cfg.l2),
      dram_(cfg.dram, cfg.l2.geom.line_bytes) {}

void MemoryPartition::ScheduleReply(Ring<PendingReply>& fifo,
                                    const IcntPacket& request,
                                    Cycle ready_at) {
  IcntPacket reply;
  reply.kind = IcntPacket::Kind::kReadReply;
  reply.addr = request.addr;
  reply.src = id_;
  reply.dst = request.src;
  reply.no_fill = request.no_fill;
  reply.token = request.token;
  reply.pc = request.pc;
  reply.bytes = cfg_.l2.geom.line_bytes + cfg_.icnt.control_overhead;
  fifo.push_back(PendingReply{reply, ready_at, next_reply_seq_++});
}

void MemoryPartition::HandleDramCompletions(Cycle now) {
  completions_.clear();
  dram_.Tick(now, completions_);
  for (const DramChannel::Completion& done : completions_) {
    if (done.write) continue;  // fire-and-forget
    waiters_.clear();
    l2_.Fill(done.block, waiters_);
    for (const IcntPacket& waiter : waiters_) {
      ScheduleReply(dram_replies_, waiter, now);
    }
    // Allocate-on-fill can displace a dirty line at fill time.
    QueueWritebacks();
  }
}

void MemoryPartition::QueueWritebacks() {
  writebacks_.clear();
  l2_.TakeWritebacks(writebacks_);
  for (Addr wb : writebacks_) {
    dram_backlog_.push_back(DramChannel::Request{wb, /*write=*/true, 0});
  }
}

void MemoryPartition::PushReplies(Cycle now, Crossbar& icnt) {
  // Inject ready replies in schedule order until the port fills: merge the
  // ready heads of the two FIFOs by sequence number.
  while (icnt.CanInjectFromPartition(id_)) {
    const bool l2_ready =
        !l2_replies_.empty() && l2_replies_.front().ready_at <= now;
    const bool dram_ready =
        !dram_replies_.empty() && dram_replies_.front().ready_at <= now;
    if (!l2_ready && !dram_ready) break;
    Ring<PendingReply>& fifo =
        l2_ready && (!dram_ready ||
                     l2_replies_.front().seq < dram_replies_.front().seq)
            ? l2_replies_
            : dram_replies_;
    icnt.InjectFromPartition(id_, fifo.front().pkt);
    ++requests_served;
    fifo.pop_front();
  }
}

void MemoryPartition::Tick(Cycle now, Crossbar& icnt) {
  if (fault_stall_cycles_ > 0) {
    // Injected controller stall: the memory cycle passes unused.
    --fault_stall_cycles_;
    return;
  }
  HandleDramCompletions(now);

  // One L2 access per memory cycle (single-ported slice). Stalled requests
  // retry ahead of new arrivals to preserve ordering.
  IcntPacket pkt;
  bool have = false;
  if (!retry_.empty()) {
    pkt = retry_.front();
    retry_.pop_front();
    have = true;
  } else if (icnt.HasForPartition(id_)) {
    pkt = icnt.PopForPartition(id_);
    have = true;
  }

  if (have) {
    const Addr block = pkt.addr / cfg_.l2.geom.line_bytes;
    switch (pkt.kind) {
      case IcntPacket::Kind::kReadRequest: {
        switch (l2_.AccessRead(block, pkt)) {
          case L2Cache::Result::kHit:
            ScheduleReply(l2_replies_, pkt, now + cfg_.l2.latency);
            break;
          case L2Cache::Result::kMissIssued:
            dram_backlog_.push_back(
                DramChannel::Request{block, /*write=*/false, /*tag=*/0});
            break;
          case L2Cache::Result::kMissMerged:
            break;
          case L2Cache::Result::kStall:
            retry_.push_back(pkt);
            break;
        }
        break;
      }
      case IcntPacket::Kind::kWrite: {
        if (l2_.AccessWrite(block) == L2Cache::Result::kMissIssued) {
          dram_backlog_.push_back(
              DramChannel::Request{block, /*write=*/true, /*tag=*/0});
        }
        break;
      }
      case IcntPacket::Kind::kOther:
        // Background L1I/L1C/L1T traffic: consumes interconnect bandwidth
        // (already accounted) and is absorbed here.
        break;
      case IcntPacket::Kind::kReadReply:
        assert(false && "replies never flow towards partitions");
        break;
    }
    // L2 evictions of dirty lines turn into DRAM writes.
    QueueWritebacks();
  }

  while (!dram_backlog_.empty() && dram_.CanAccept()) {
    dram_.Enqueue(dram_backlog_.front());
    dram_backlog_.pop_front();
  }

  PushReplies(now, icnt);
  next_due_ = QueuedDue(now);
}

Cycle MemoryPartition::QueuedDue(Cycle now) const {
  // The DRAM backlog needs no term: Tick leaves it non-empty only behind a
  // full DRAM queue, which frees no earlier than the channel's next event.
  Cycle due = dram_.NextEvent();
  if (!l2_replies_.empty()) due = std::min(due, l2_replies_.front().ready_at);
  if (!dram_replies_.empty()) {
    due = std::min(due, dram_replies_.front().ready_at);
  }
  // An L2-stalled retry counts reservation_fails on every cycle.
  if (!retry_.empty()) due = std::min(due, now + 1);
  return due;
}

MemoryPartition::QueueDepths MemoryPartition::Depths() const {
  QueueDepths d;
  d.retry = retry_.size();
  d.replies = l2_replies_.size() + dram_replies_.size();
  d.dram_backlog = dram_backlog_.size();
  d.dram_queue = dram_.queue_depth();
  d.dram_in_service = dram_.in_service_depth();
  d.l2_pending = l2_.pending_fetches();
  return d;
}

bool MemoryPartition::Idle() const {
  return l2_replies_.empty() && dram_replies_.empty() && retry_.empty() &&
         dram_backlog_.empty() && dram_.Idle();
}

}  // namespace dlpsim
