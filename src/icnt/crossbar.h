// Crossbar interconnect between SM cores and memory partitions.
//
// Model: every source (core or partition) owns an injection port with a
// fixed per-cycle byte bandwidth; a packet serializes for
// ceil(bytes / bandwidth) interconnect cycles, then travels `latency`
// cycles, then waits in a per-destination FIFO for space in the
// destination's delivery queue (bounded, providing backpressure). Byte
// counters distinguish L1D traffic from the background L1I/L1C/L1T
// traffic so Fig. 13's dilution effect is measurable.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/mshr.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

struct IcntPacket {
  enum class Kind : std::uint8_t {
    kReadRequest,  // L1D (or bypassed) read: core -> partition
    kWrite,        // write-through / writeback data: core -> partition
    kReadReply,    // fill / bypass data: partition -> core
    kOther,        // background L1I/L1C/L1T traffic: core -> partition
  };

  Kind kind = Kind::kReadRequest;
  Addr addr = 0;  // byte address (partition mapping happens in gpu/)
  std::uint32_t src = 0;  // core id or partition id depending on direction
  std::uint32_t dst = 0;
  bool no_fill = false;   // carried through so the reply skips the L1 fill
  MshrToken token = 0;
  Pc pc = 0;
  std::uint32_t bytes = 8;  // wire size including header
};

class Crossbar {
 public:
  Crossbar(const IcntConfig& cfg, std::uint32_t num_cores,
           std::uint32_t num_partitions);

  // --- core side ---
  bool CanInjectFromCore(std::uint32_t core) const;
  void InjectFromCore(std::uint32_t core, const IcntPacket& pkt);
  bool HasForCore(std::uint32_t core) const {
    return !to_core_[core].empty();
  }
  IcntPacket PopForCore(std::uint32_t core);

  // --- partition side ---
  bool CanInjectFromPartition(std::uint32_t part) const {
    return partition_ports_[part].queue.size() < kInjectQueueCap;
  }
  void InjectFromPartition(std::uint32_t part, const IcntPacket& pkt);
  bool HasForPartition(std::uint32_t part) const {
    return !to_partition_[part].empty();
  }
  IcntPacket PopForPartition(std::uint32_t part);

  /// Advances one interconnect cycle.
  void Tick(Cycle now);

  /// Fault-injection hook (robust/): freezes the whole fabric for the
  /// next `cycles` interconnect ticks (no serialization, no delivery),
  /// modelling a transient congestion / link-retraining spike. Counts
  /// down inside Tick; stacking injections extends the stall.
  void InjectStallFor(std::uint64_t cycles) { fault_stall_cycles_ += cycles; }

  /// True when no packet is anywhere in the network (drain check).
  bool Idle() const;

  /// Debug introspection: instantaneous queue depths. `in_flight` counts
  /// every serialized packet not yet in a delivery queue: those still in
  /// transit and those due but waiting for room at their destination.
  struct QueueDepths {
    std::size_t core_inject = 0, partition_inject = 0, in_flight = 0,
                to_partition = 0, to_core = 0;
  };
  QueueDepths Depths() const;

  /// A serialized packet in transit.
  struct InFlight {
    IcntPacket pkt;
    Cycle deliver_at = 0;
    bool to_core = false;
  };
  /// Packets in transit and not yet due, in serialization order (the
  /// invariant checker verifies they are ordered by deliver_at).
  const std::deque<InFlight>& in_transit() const { return flight_; }
  /// White-box tests only: plants the disorder the checker must catch.
  std::deque<InFlight>& mutable_in_transit() { return flight_; }

  // --- statistics (bytes injected, by class) ---
  std::uint64_t bytes_core_to_mem = 0;
  std::uint64_t bytes_mem_to_core = 0;
  std::uint64_t bytes_l1d = 0;    // read requests + writes + replies for L1D
  std::uint64_t bytes_other = 0;  // background traffic
  std::uint64_t packets_delivered = 0;

  std::uint64_t total_bytes() const {
    return bytes_core_to_mem + bytes_mem_to_core;
  }

 private:
  struct Port {
    std::deque<IcntPacket> queue;   // awaiting serialization
    std::uint32_t sent_bytes = 0;   // of the head packet
  };

  void TickPort(Port& port, bool to_core, Cycle now);
  void Deliver(Cycle now);

  IcntConfig cfg_;
  std::vector<Port> core_ports_;       // injection, core -> mem
  std::vector<Port> partition_ports_;  // injection, mem -> core
  std::deque<InFlight> flight_;        // serialized, in transit (FIFO)
  std::vector<std::deque<IcntPacket>> to_partition_;  // delivery queues
  std::vector<std::deque<IcntPacket>> to_core_;
  // Due packets that found their delivery queue full, per destination in
  // arrival order; waiting_ counts them all.
  std::vector<std::deque<IcntPacket>> wait_to_partition_;
  std::vector<std::deque<IcntPacket>> wait_to_core_;
  std::size_t waiting_ = 0;
  std::uint64_t fault_stall_cycles_ = 0;  // robust/: ticks to swallow

  static constexpr std::size_t kInjectQueueCap = 8;
  static constexpr std::size_t kDeliveryQueueCap = 16;
};

}  // namespace dlpsim
