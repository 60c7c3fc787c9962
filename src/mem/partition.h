// A memory partition: L2 slice + DRAM channel + the queues between them.
// Runs in the memory clock domain; packet exchange with the interconnect
// happens through the Crossbar's partition-side ports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "icnt/crossbar.h"
#include "mem/dram.h"
#include "mem/l2_cache.h"
#include "sim/config.h"
#include "sim/ring.h"
#include "sim/types.h"

namespace dlpsim {

class MemoryPartition {
 public:
  MemoryPartition(const SimConfig& cfg, PartitionId id);

  /// Processes up to one incoming packet and advances L2/DRAM bookkeeping
  /// by one memory-domain cycle. Replies are pushed into the crossbar when
  /// its partition port has room.
  void Tick(Cycle now_mem, Crossbar& icnt);

  /// The earliest memory cycle from `now_mem` on whose Tick is not a
  /// no-op: `now_mem` while a fault stall counts down or the crossbar
  /// holds a packet for this partition, else next_due().
  Cycle NextDue(Cycle now_mem, const Crossbar& icnt) const {
    if (fault_stall_cycles_ > 0 || icnt.HasForPartition(id_)) return now_mem;
    return std::max(now_mem, next_due_);
  }
  /// The earliest memory cycle on which queued work falls due, as of the
  /// last Tick: the DRAM channel's next event, the head of either reply
  /// FIFO, or the next cycle while a request waits to retry.
  Cycle next_due() const { return next_due_; }

  bool Idle() const;

  /// Fault-injection hook (robust/): the partition ignores the next
  /// `cycles` memory-domain ticks (no L2 service, no DRAM progress, no
  /// replies), modelling a transient controller stall.
  void InjectStallFor(std::uint64_t cycles) { fault_stall_cycles_ += cycles; }

  const L2Cache& l2() const { return l2_; }
  /// White-box tests only: plants the corruption the checker must catch.
  L2Cache& mutable_l2() { return l2_; }
  const DramChannel& dram() const { return dram_; }
  PartitionId id() const { return id_; }

  std::uint64_t requests_served = 0;

  /// Debug/teaching introspection: instantaneous queue depths.
  struct QueueDepths {
    std::size_t retry = 0, replies = 0, dram_backlog = 0, dram_queue = 0,
                dram_in_service = 0, l2_pending = 0;
  };
  QueueDepths Depths() const;

  struct PendingReply {
    IcntPacket pkt;
    Cycle ready_at = 0;
    std::uint64_t seq = 0;  // schedule order across both reply FIFOs
  };
  /// The two reply FIFOs, L2 hits and DRAM fills, in schedule order (the
  /// invariant checker verifies each is ordered by ready_at).
  const Ring<PendingReply>& l2_replies() const { return l2_replies_; }
  const Ring<PendingReply>& dram_replies() const { return dram_replies_; }
  /// White-box tests only: plants the disorder the checker must catch.
  Ring<PendingReply>& mutable_l2_replies() { return l2_replies_; }

 private:
  void ScheduleReply(Ring<PendingReply>& fifo, const IcntPacket& request,
                     Cycle ready_at);
  void PushReplies(Cycle now, Crossbar& icnt);
  void HandleDramCompletions(Cycle now);
  /// Queues the L2's displaced dirty lines as DRAM writes.
  void QueueWritebacks();
  Cycle QueuedDue(Cycle now) const;

  SimConfig cfg_;
  PartitionId id_;
  L2Cache l2_;
  DramChannel dram_;
  // Replies awaiting the icnt, one FIFO per source. Each source's ready_at
  // only grows, so the ready replies of a FIFO are a prefix of it.
  Ring<PendingReply> l2_replies_;    // L2 hits: now + l2.latency
  Ring<PendingReply> dram_replies_;  // DRAM fills: now
  std::uint64_t next_reply_seq_ = 0;
  Ring<IcntPacket> retry_;                   // requests stalled by the L2
  Ring<DramChannel::Request> dram_backlog_;  // L2 misses / writes
  // Hand-off buffers from the DRAM channel and the L2, kept across ticks
  // so that they allocate only while they grow.
  std::vector<DramChannel::Completion> completions_;
  std::vector<IcntPacket> waiters_;
  std::vector<Addr> writebacks_;
  std::uint64_t fault_stall_cycles_ = 0;           // robust/: ticks to swallow
  Cycle next_due_ = 0;  // a new partition is due on its first cycle
};

}  // namespace dlpsim
