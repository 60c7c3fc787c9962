// A memory partition: L2 slice + DRAM channel + the queues between them.
// Runs in the memory clock domain; packet exchange with the interconnect
// happens through the Crossbar's partition-side ports.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "icnt/crossbar.h"
#include "mem/dram.h"
#include "mem/l2_cache.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

class MemoryPartition {
 public:
  MemoryPartition(const SimConfig& cfg, PartitionId id);

  /// Processes up to one incoming packet and advances L2/DRAM bookkeeping
  /// by one memory-domain cycle. Replies are pushed into the crossbar when
  /// its partition port has room.
  void Tick(Cycle now_mem, Crossbar& icnt);

  bool Idle() const;

  /// Fault-injection hook (robust/): the partition ignores the next
  /// `cycles` memory-domain ticks (no L2 service, no DRAM progress, no
  /// replies), modelling a transient controller stall.
  void InjectStallFor(std::uint64_t cycles) { fault_stall_cycles_ += cycles; }

  const L2Cache& l2() const { return l2_; }
  const DramChannel& dram() const { return dram_; }
  PartitionId id() const { return id_; }

  std::uint64_t requests_served = 0;

  /// Debug/teaching introspection: instantaneous queue depths.
  struct QueueDepths {
    std::size_t retry = 0, replies = 0, dram_backlog = 0, dram_queue = 0,
                dram_in_service = 0, l2_pending = 0;
  };
  QueueDepths Depths() const;

 private:
  struct PendingReply {
    IcntPacket pkt;
    Cycle ready_at = 0;
    std::uint64_t seq = 0;  // schedule order across both reply FIFOs
  };

  void ScheduleReply(std::deque<PendingReply>& fifo, const IcntPacket& request,
                     Cycle ready_at);
  void PushReplies(Cycle now, Crossbar& icnt);
  void HandleDramCompletions(Cycle now);

  SimConfig cfg_;
  PartitionId id_;
  L2Cache l2_;
  DramChannel dram_;
  // Replies awaiting the icnt, one FIFO per source. Each source's ready_at
  // only grows, so the ready replies of a FIFO are a prefix of it.
  std::deque<PendingReply> l2_replies_;    // L2 hits: now + l2.latency
  std::deque<PendingReply> dram_replies_;  // DRAM fills: now
  std::uint64_t next_reply_seq_ = 0;
  std::deque<IcntPacket> retry_;         // requests stalled by the L2
  std::deque<DramChannel::Request> dram_backlog_;  // L2 misses / writes
  std::uint64_t fault_stall_cycles_ = 0;           // robust/: ticks to swallow
  obs::Counter* m_served_ = nullptr;               // mem.requests_served
};

}  // namespace dlpsim
