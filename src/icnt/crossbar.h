// Crossbar interconnect between SM cores and memory partitions.
//
// Model: every source (core or partition) owns an injection port with a
// fixed per-cycle byte bandwidth; a packet serializes for
// ceil(bytes / bandwidth) interconnect cycles, then travels `latency`
// cycles, then waits in a per-destination FIFO for space in the
// destination's delivery queue (bounded, providing backpressure). Byte
// counters distinguish L1D traffic from the background L1I/L1C/L1T
// traffic so Fig. 13's dilution effect is measurable.
//
// A port's head packet finishes serializing on a cycle known when it
// becomes head, so Tick visits only the ports that hold packets and
// NextDue names the next cycle on which a tick does anything.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/mshr.h"
#include "sim/config.h"
#include "sim/ring.h"
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
  bool CanInjectFromCore(std::uint32_t core) const {
    return ports_[core].size() < kInjectQueueCap;
  }
  void InjectFromCore(std::uint32_t core, const IcntPacket& pkt);
  bool HasForCore(std::uint32_t core) const {
    return !to_core_[core].empty();
  }
  IcntPacket PopForCore(std::uint32_t core);

  // --- partition side ---
  bool CanInjectFromPartition(std::uint32_t part) const {
    return ports_[num_cores_ + part].size() < kInjectQueueCap;
  }
  void InjectFromPartition(std::uint32_t part, const IcntPacket& pkt);
  bool HasForPartition(std::uint32_t part) const {
    return !to_partition_[part].empty();
  }
  IcntPacket PopForPartition(std::uint32_t part);

  /// Advances one interconnect cycle. Calling it on every cycle is always
  /// exact; a caller may skip every cycle before NextDue.
  void Tick(Cycle now);

  /// The earliest cycle from `now` on whose Tick is not a no-op: `now`
  /// while a fault stall counts down, a due packet waits for room at its
  /// destination, or a port holds a head not yet scheduled; otherwise
  /// the earlier of the first serialization to finish and the delivery
  /// of the oldest packet in transit (kNever when the fabric is empty).
  Cycle NextDue(Cycle now) const { return next_due_ > now ? next_due_ : now; }

  /// The destinations whose delivery queue received a packet in the last
  /// Tick, in delivery order (a destination may repeat).
  const std::vector<std::uint32_t>& landed_cores() const {
    return landed_cores_;
  }
  const std::vector<std::uint32_t>& landed_partitions() const {
    return landed_partitions_;
  }

  /// Fault-injection hook (robust/): freezes the whole fabric for the
  /// next `cycles` interconnect ticks (no serialization, no delivery),
  /// modelling a transient congestion / link-retraining spike. Counts
  /// down inside Tick; stacking injections extends the stall.
  void InjectStallFor(std::uint64_t cycles);

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
  const Ring<InFlight>& in_transit() const { return flight_; }
  /// White-box tests only: plants the disorder the checker must catch.
  Ring<InFlight>& mutable_in_transit() { return flight_; }

  /// The injection ports' queues of packets awaiting serialization, head
  /// first: core ports in core order, then partition ports.
  const std::vector<Ring<IcntPacket>>& ports() const { return ports_; }
  /// Per port, the cycle its head finishes serializing: kUnscheduled
  /// until a Tick sees the head, and for an empty port.
  const std::vector<Cycle>& done_at() const { return done_at_; }
  static constexpr Cycle kUnscheduled = 0;
  /// White-box tests only: plant the drift the checker must catch.
  std::vector<Ring<IcntPacket>>& mutable_ports() { return ports_; }
  std::vector<Cycle>& mutable_done_at() { return done_at_; }
  /// Whether port `i` is in the busy set Tick visits.
  bool Busy(std::size_t i) const { return (busy_[i / 64] >> (i % 64)) & 1u; }
  /// Packets due but waiting for room at their destination.
  std::size_t waiting() const { return waiting_; }
  /// Whether a fault stall is counting down.
  bool stalled() const { return fault_stall_cycles_ > 0; }
  /// The raw next due cycle NextDue clamps (0: the next tick).
  Cycle next_due() const { return next_due_; }

  // --- statistics (bytes injected, by class) ---
  std::uint64_t bytes_core_to_mem = 0;
  std::uint64_t bytes_mem_to_core = 0;
  std::uint64_t bytes_l1d = 0;    // read requests + writes + replies for L1D
  std::uint64_t bytes_other = 0;  // background traffic
  std::uint64_t packets_delivered = 0;
  /// Busy ports Tick visited: the engine's per-port work.
  std::uint64_t port_visits = 0;

  std::uint64_t total_bytes() const {
    return bytes_core_to_mem + bytes_mem_to_core;
  }

 private:
  void Inject(std::size_t port, const IcntPacket& pkt);
  /// Cycles a packet of `bytes` takes to serialize: at least one.
  Cycle SerializeCycles(std::uint32_t bytes) const;
  /// next_due_ from scratch (Tick keeps it as it goes).
  Cycle EarliestWork() const;
  void Deliver(Cycle now);
  void Land(Ring<IcntPacket>& queue, const InFlight& f);

  IcntConfig cfg_;
  std::uint32_t num_cores_;
  std::vector<Ring<IcntPacket>> ports_;  // awaiting serialization
  std::vector<Cycle> done_at_;                 // see done_at()
  std::vector<std::uint64_t> busy_;  // bit i: ports_[i] holds a packet
  std::vector<std::uint32_t> new_heads_;  // ports that gained a head
  Ring<InFlight> flight_;  // serialized, in transit (FIFO)
  std::vector<Ring<IcntPacket>> to_partition_;  // delivery queues
  std::vector<Ring<IcntPacket>> to_core_;
  // Due packets that found their delivery queue full, per destination in
  // arrival order; waiting_ counts them all.
  std::vector<Ring<IcntPacket>> wait_to_partition_;
  std::vector<Ring<IcntPacket>> wait_to_core_;
  std::size_t waiting_ = 0;
  std::uint64_t fault_stall_cycles_ = 0;  // robust/: ticks to swallow
  Cycle next_due_ = kNever;
  std::vector<std::uint32_t> landed_cores_;
  std::vector<std::uint32_t> landed_partitions_;

  static constexpr std::size_t kInjectQueueCap = 8;
  static constexpr std::size_t kDeliveryQueueCap = 16;
};

}  // namespace dlpsim
