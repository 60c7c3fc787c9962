#include "icnt/crossbar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "sim/rng.h"

namespace dlpsim {
namespace {

IcntConfig FastIcnt() {
  IcntConfig cfg;
  cfg.latency = 4;
  cfg.bytes_per_cycle_per_port = 32;
  return cfg;
}

IcntPacket ReadReq(std::uint32_t src, std::uint32_t dst, Addr addr = 0) {
  IcntPacket p;
  p.kind = IcntPacket::Kind::kReadRequest;
  p.src = src;
  p.dst = dst;
  p.addr = addr;
  p.bytes = 8;
  return p;
}

void TickN(Crossbar& xbar, Cycle& now, int n) {
  for (int i = 0; i < n; ++i) xbar.Tick(++now);
}

TEST(Crossbar, DeliversAfterSerializationAndLatency) {
  Crossbar xbar(FastIcnt(), 2, 2);
  Cycle now = 0;
  xbar.InjectFromCore(0, ReadReq(0, 1));
  EXPECT_FALSE(xbar.HasForPartition(1));
  // 1 cycle serialization (8B at 32B/cyc) + 4 cycles latency.
  TickN(xbar, now, 5);
  EXPECT_TRUE(xbar.HasForPartition(1));
  const IcntPacket got = xbar.PopForPartition(1);
  EXPECT_EQ(got.src, 0u);
}

TEST(Crossbar, LargePacketsSerializeLonger) {
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  IcntPacket big = ReadReq(0, 0);
  big.kind = IcntPacket::Kind::kWrite;
  big.bytes = 136;  // 5 cycles at 32B/cycle
  xbar.InjectFromCore(0, big);
  TickN(xbar, now, 5);  // not yet: 5 serialize means flight at t=5
  EXPECT_FALSE(xbar.HasForPartition(0));
  TickN(xbar, now, 4);
  EXPECT_TRUE(xbar.HasForPartition(0));
}

TEST(Crossbar, PointToPointOrderPreserved) {
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  for (int i = 0; i < 3; ++i) {
    xbar.InjectFromCore(0, ReadReq(0, 0, static_cast<Addr>(i)));
  }
  TickN(xbar, now, 20);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(xbar.HasForPartition(0));
    EXPECT_EQ(xbar.PopForPartition(0).addr, static_cast<Addr>(i));
  }
}

TEST(Crossbar, ReplyPathIsSeparate) {
  Crossbar xbar(FastIcnt(), 2, 2);
  Cycle now = 0;
  IcntPacket reply;
  reply.kind = IcntPacket::Kind::kReadReply;
  reply.src = 1;
  reply.dst = 0;
  reply.bytes = 136;
  xbar.InjectFromPartition(1, reply);
  TickN(xbar, now, 20);
  EXPECT_TRUE(xbar.HasForCore(0));
  EXPECT_FALSE(xbar.HasForPartition(0));
  EXPECT_EQ(xbar.PopForCore(0).kind, IcntPacket::Kind::kReadReply);
}

TEST(Crossbar, InjectionBackpressure) {
  Crossbar xbar(FastIcnt(), 1, 1);
  int injected = 0;
  while (xbar.CanInjectFromCore(0)) {
    xbar.InjectFromCore(0, ReadReq(0, 0));
    ++injected;
  }
  EXPECT_EQ(injected, 8);  // inject queue cap
  Cycle now = 0;
  TickN(xbar, now, 2);
  EXPECT_TRUE(xbar.CanInjectFromCore(0));
}

TEST(Crossbar, DeliveryBackpressureHoldsPacketsInFlight) {
  Crossbar xbar(FastIcnt(), 4, 1);
  Cycle now = 0;
  // Flood one partition from several cores without draining it.
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      if (xbar.CanInjectFromCore(c)) xbar.InjectFromCore(c, ReadReq(c, 0));
    }
    xbar.Tick(++now);
  }
  TickN(xbar, now, 30);
  // Delivery queue capacity is 16; nothing is lost, the rest waits.
  int drained = 0;
  while (!xbar.Idle()) {
    while (xbar.HasForPartition(0)) {
      xbar.PopForPartition(0);
      ++drained;
    }
    xbar.Tick(++now);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(drained), xbar.packets_delivered);
  EXPECT_GE(drained, 30);
}

TEST(Crossbar, ByteAccountingByClass) {
  Crossbar xbar(FastIcnt(), 2, 2);
  xbar.InjectFromCore(0, ReadReq(0, 1));  // 8 bytes, l1d
  IcntPacket other;
  other.kind = IcntPacket::Kind::kOther;
  other.src = 0;
  other.dst = 0;
  other.bytes = 100;
  xbar.InjectFromCore(0, other);
  IcntPacket reply;
  reply.kind = IcntPacket::Kind::kReadReply;
  reply.src = 1;
  reply.dst = 0;
  reply.bytes = 136;
  xbar.InjectFromPartition(1, reply);

  EXPECT_EQ(xbar.bytes_core_to_mem, 108u);
  EXPECT_EQ(xbar.bytes_mem_to_core, 136u);
  EXPECT_EQ(xbar.bytes_l1d, 144u);
  EXPECT_EQ(xbar.bytes_other, 100u);
  EXPECT_EQ(xbar.total_bytes(), 244u);
}

TEST(Crossbar, BackToBackPacketsSerializeOnePerCycle) {
  // Latency accounting for a busy port: each 8B packet occupies the
  // 32B/cyc serializer for one cycle, so the n-th packet lands exactly
  // one cycle after the (n-1)-th: ticks 5, 6, 7 for three packets.
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  for (int i = 0; i < 3; ++i) {
    xbar.InjectFromCore(0, ReadReq(0, 0, static_cast<Addr>(i)));
  }
  std::vector<Cycle> arrival;
  while (arrival.size() < 3 && now < 100) {
    xbar.Tick(++now);
    while (xbar.HasForPartition(0)) {
      arrival.push_back(now);
      xbar.PopForPartition(0);
    }
  }
  ASSERT_EQ(arrival.size(), 3u);
  EXPECT_EQ(arrival[0], 5u);  // 1 serialize + 4 latency
  EXPECT_EQ(arrival[1], 6u);
  EXPECT_EQ(arrival[2], 7u);
}

TEST(Crossbar, InjectedStallDelaysDeliveryByExactlyThatLong) {
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  xbar.InjectFromCore(0, ReadReq(0, 0));
  xbar.InjectStallFor(3);
  TickN(xbar, now, 7);  // 3 swallowed + 1 serialize + latency not yet up
  EXPECT_FALSE(xbar.HasForPartition(0));
  TickN(xbar, now, 1);  // tick 8 = 3 + the usual 5
  EXPECT_TRUE(xbar.HasForPartition(0));
}

TEST(Crossbar, DepthsTrackPacketThroughStages) {
  Crossbar xbar(FastIcnt(), 1, 1);
  IcntPacket big = ReadReq(0, 0);
  big.bytes = 136;  // 5 cycles to serialize at 32B/cycle
  xbar.InjectFromCore(0, big);
  Crossbar::QueueDepths d = xbar.Depths();
  EXPECT_EQ(d.core_inject, 1u);
  EXPECT_EQ(d.in_flight, 0u);

  Cycle now = 0;
  TickN(xbar, now, 4);  // partially serialized: still owned by the port
  d = xbar.Depths();
  EXPECT_EQ(d.core_inject, 1u);
  EXPECT_EQ(d.in_flight, 0u);

  TickN(xbar, now, 1);  // serialization completes at tick 5
  d = xbar.Depths();
  EXPECT_EQ(d.core_inject, 0u);
  EXPECT_EQ(d.in_flight, 1u);

  TickN(xbar, now, 4);  // arrives at 5 + latency(4) = tick 9
  d = xbar.Depths();
  EXPECT_EQ(d.in_flight, 0u);
  EXPECT_EQ(d.to_partition, 1u);
}

TEST(Crossbar, PartitionSideInjectionBackpressure) {
  Crossbar xbar(FastIcnt(), 1, 1);
  int injected = 0;
  IcntPacket reply;
  reply.kind = IcntPacket::Kind::kReadReply;
  reply.bytes = 136;
  while (xbar.CanInjectFromPartition(0)) {
    xbar.InjectFromPartition(0, reply);
    ++injected;
  }
  EXPECT_EQ(injected, 8);
  Cycle now = 0;
  TickN(xbar, now, 5);  // one 136B reply fully serialized frees a slot
  EXPECT_TRUE(xbar.CanInjectFromPartition(0));
}

TEST(Crossbar, OrderSurvivesDeliveryQueueBackpressure) {
  // Saturate the partition-0 delivery queue (cap 16) so later packets
  // block in flight, then drain slowly: the original injection order
  // must come out the other end untouched.
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  int injected = 0;
  while (injected < 20) {
    if (xbar.CanInjectFromCore(0)) {
      xbar.InjectFromCore(0, ReadReq(0, 0, static_cast<Addr>(injected++)));
    }
    xbar.Tick(++now);
  }
  std::vector<Addr> order;
  while (!xbar.Idle() && now < 500) {
    if (xbar.HasForPartition(0)) order.push_back(xbar.PopForPartition(0).addr);
    xbar.Tick(++now);
  }
  while (xbar.HasForPartition(0)) order.push_back(xbar.PopForPartition(0).addr);
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<Addr>(i)) << "position " << i;
  }
}

TEST(Crossbar, FullDeliveryQueueBlocksOnlyItsOwnDestination) {
  // Partition 0's delivery queue (cap 16) fills and 4 due packets for it
  // stay in flight. A later packet for partition 1 must still land on the
  // cycle it is due, and partition 0's packets must keep injection order.
  Crossbar xbar(FastIcnt(), 1, 2);
  Cycle now = 0;
  int injected = 0;
  while (injected < 20) {
    if (xbar.CanInjectFromCore(0)) {
      xbar.InjectFromCore(0, ReadReq(0, 0, static_cast<Addr>(injected++)));
    }
    xbar.Tick(++now);
  }
  TickN(xbar, now, 10);  // every packet has serialized and is due
  Crossbar::QueueDepths d = xbar.Depths();
  ASSERT_EQ(d.to_partition, 16u);
  ASSERT_EQ(d.in_flight, 4u);

  xbar.InjectFromCore(0, ReadReq(0, 1, 0x99));
  const Cycle due = now + 5;  // 1 serialize + 4 latency
  while (now + 1 < due) {
    xbar.Tick(++now);
    EXPECT_FALSE(xbar.HasForPartition(1)) << "early at " << now;
  }
  xbar.Tick(++now);
  ASSERT_TRUE(xbar.HasForPartition(1));
  EXPECT_EQ(xbar.PopForPartition(1).addr, 0x99u);
  EXPECT_EQ(xbar.Depths().in_flight, 4u);  // the blocked ones still wait

  std::vector<Addr> order;
  while (!xbar.Idle() && now < 500) {
    while (xbar.HasForPartition(0)) {
      order.push_back(xbar.PopForPartition(0).addr);
    }
    xbar.Tick(++now);
  }
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<Addr>(i)) << "position " << i;
  }
}

TEST(Crossbar, SmallPacketCannotOvertakeLargeOnSamePort) {
  Crossbar xbar(FastIcnt(), 1, 1);
  Cycle now = 0;
  IcntPacket big = ReadReq(0, 0, 0xb16);
  big.bytes = 160;  // 5 serialization cycles
  xbar.InjectFromCore(0, big);
  xbar.InjectFromCore(0, ReadReq(0, 0, 0x5a11));  // 1 cycle, queued behind
  TickN(xbar, now, 30);
  ASSERT_TRUE(xbar.HasForPartition(0));
  EXPECT_EQ(xbar.PopForPartition(0).addr, 0xb16u);
  ASSERT_TRUE(xbar.HasForPartition(0));
  EXPECT_EQ(xbar.PopForPartition(0).addr, 0x5a11u);
}

TEST(Crossbar, IdleTracksAllStages) {
  Crossbar xbar(FastIcnt(), 1, 1);
  EXPECT_TRUE(xbar.Idle());
  xbar.InjectFromCore(0, ReadReq(0, 0));
  EXPECT_FALSE(xbar.Idle());
  Cycle now = 0;
  TickN(xbar, now, 10);
  EXPECT_FALSE(xbar.Idle());  // sits in the delivery queue
  xbar.PopForPartition(0);
  EXPECT_TRUE(xbar.Idle());
}

// The crossbar as it was before the wait FIFOs: every tick rescans each
// due packet, delivers those whose queue has room and compacts the
// blocked ones to the front of the in-flight queue. The reference for
// Crossbar.MatchesRescanReference.
class RescanCrossbar {
 public:
  RescanCrossbar(const IcntConfig& cfg, std::uint32_t num_cores,
                 std::uint32_t num_partitions)
      : cfg_(cfg),
        core_ports_(num_cores),
        partition_ports_(num_partitions),
        to_partition_(num_partitions),
        to_core_(num_cores) {}

  bool CanInjectFromCore(std::uint32_t c) const {
    return core_ports_[c].queue.size() < kInjectQueueCap;
  }
  void InjectFromCore(std::uint32_t c, const IcntPacket& p) {
    core_ports_[c].queue.push_back(p);
  }
  bool CanInjectFromPartition(std::uint32_t p) const {
    return partition_ports_[p].queue.size() < kInjectQueueCap;
  }
  void InjectFromPartition(std::uint32_t p, const IcntPacket& pkt) {
    partition_ports_[p].queue.push_back(pkt);
  }
  bool HasForCore(std::uint32_t c) const { return !to_core_[c].empty(); }
  bool HasForPartition(std::uint32_t p) const {
    return !to_partition_[p].empty();
  }
  IcntPacket PopForCore(std::uint32_t c) { return Pop(to_core_[c]); }
  IcntPacket PopForPartition(std::uint32_t p) {
    return Pop(to_partition_[p]);
  }
  void InjectStallFor(std::uint64_t cycles) { stall_ += cycles; }

  void Tick(Cycle now) {
    if (stall_ > 0) {
      --stall_;
      return;
    }
    for (Port& p : core_ports_) TickPort(p, false, now);
    for (Port& p : partition_ports_) TickPort(p, true, now);
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
    max_blocked = std::max(max_blocked, kept);
  }

  Crossbar::QueueDepths Depths() const {
    Crossbar::QueueDepths d;
    for (const Port& p : core_ports_) d.core_inject += p.queue.size();
    for (const Port& p : partition_ports_) d.partition_inject += p.queue.size();
    d.in_flight = flight_.size();
    for (const auto& q : to_partition_) d.to_partition += q.size();
    for (const auto& q : to_core_) d.to_core += q.size();
    return d;
  }

  bool Idle() const {
    const Crossbar::QueueDepths d = Depths();
    return d.core_inject + d.partition_inject + d.in_flight +
               d.to_partition + d.to_core ==
           0;
  }

  std::uint64_t packets_delivered = 0;
  std::size_t max_blocked = 0;  // most due packets blocked on one tick

 private:
  struct InFlight {
    IcntPacket pkt;
    Cycle deliver_at = 0;
    bool to_core = false;
  };
  struct Port {
    std::deque<IcntPacket> queue;
    std::uint32_t sent_bytes = 0;
  };

  static IcntPacket Pop(std::deque<IcntPacket>& q) {
    IcntPacket p = q.front();
    q.pop_front();
    return p;
  }

  void TickPort(Port& port, bool to_core, Cycle now) {
    if (port.queue.empty()) return;
    port.sent_bytes += cfg_.bytes_per_cycle_per_port;
    if (port.sent_bytes < port.queue.front().bytes) return;
    flight_.push_back(
        InFlight{port.queue.front(), now + cfg_.latency, to_core});
    port.queue.pop_front();
    port.sent_bytes = 0;
  }

  IcntConfig cfg_;
  std::vector<Port> core_ports_;
  std::vector<Port> partition_ports_;
  std::deque<InFlight> flight_;
  std::vector<std::deque<IcntPacket>> to_partition_;
  std::vector<std::deque<IcntPacket>> to_core_;
  std::uint64_t stall_ = 0;

  static constexpr std::size_t kInjectQueueCap = 8;
  static constexpr std::size_t kDeliveryQueueCap = 16;
};

// The wait FIFOs against the rescan above, tick by tick: seeded traffic
// from 4 cores and 3 partitions, consumers that leave some destinations
// undrained for long stretches, and fabric stalls.
TEST(Crossbar, MatchesRescanReference) {
  constexpr std::uint32_t kCores = 4;
  constexpr std::uint32_t kParts = 3;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Crossbar xbar(FastIcnt(), kCores, kParts);
    RescanCrossbar ref(FastIcnt(), kCores, kParts);
    // Per destination (partitions, then cores): pops per tick, 0 while
    // the consumer is stalled.
    std::vector<std::uint64_t> drain(kCores + kParts, 1);
    Addr next_addr = 0;
    const auto same = [](const IcntPacket& a, const IcntPacket& b) {
      return a.kind == b.kind && a.addr == b.addr && a.src == b.src &&
             a.dst == b.dst && a.bytes == b.bytes;
    };
    const auto packet = [&](IcntPacket::Kind kind, std::uint32_t src,
                            std::uint32_t dst) {
      IcntPacket p;
      p.kind = kind;
      p.src = src;
      p.dst = dst;
      p.addr = next_addr++;
      p.bytes = rng.Below(4) == 0 ? 136 : 8;
      return p;
    };

    for (Cycle now = 1; now <= 6000; ++now) {
      for (std::uint32_t c = 0; c < kCores; ++c) {
        ASSERT_EQ(xbar.CanInjectFromCore(c), ref.CanInjectFromCore(c));
        if (xbar.CanInjectFromCore(c) && rng.Below(3) != 0) {
          // Half the requests hit partition 0, so its queue backs up.
          const auto dst = static_cast<std::uint32_t>(
              rng.Below(2) == 0 ? 0 : rng.Below(kParts));
          const IcntPacket p = packet(IcntPacket::Kind::kReadRequest, c, dst);
          xbar.InjectFromCore(c, p);
          ref.InjectFromCore(c, p);
        }
      }
      for (std::uint32_t part = 0; part < kParts; ++part) {
        ASSERT_EQ(xbar.CanInjectFromPartition(part),
                  ref.CanInjectFromPartition(part));
        if (xbar.CanInjectFromPartition(part) && rng.Below(4) == 0) {
          const IcntPacket p =
              packet(IcntPacket::Kind::kReadReply, part,
                     static_cast<std::uint32_t>(rng.Below(kCores)));
          xbar.InjectFromPartition(part, p);
          ref.InjectFromPartition(part, p);
        }
      }
      if (rng.Below(500) == 0) {
        const std::uint64_t cycles = 1 + rng.Below(30);
        xbar.InjectStallFor(cycles);
        ref.InjectStallFor(cycles);
      }
      for (std::uint64_t& d : drain) {
        if (rng.Below(150) == 0) d = rng.Below(3);  // 0 stalls the consumer
      }

      xbar.Tick(now);
      ref.Tick(now);

      for (std::uint32_t part = 0; part < kParts; ++part) {
        for (std::uint64_t k = 0; k < drain[part]; ++k) {
          ASSERT_EQ(xbar.HasForPartition(part), ref.HasForPartition(part))
              << "partition " << part << " cycle " << now;
          if (!ref.HasForPartition(part)) break;
          ASSERT_TRUE(same(xbar.PopForPartition(part),
                           ref.PopForPartition(part)))
              << "partition " << part << " cycle " << now;
        }
        ASSERT_EQ(xbar.HasForPartition(part), ref.HasForPartition(part));
      }
      for (std::uint32_t c = 0; c < kCores; ++c) {
        for (std::uint64_t k = 0; k < drain[kParts + c]; ++k) {
          ASSERT_EQ(xbar.HasForCore(c), ref.HasForCore(c))
              << "core " << c << " cycle " << now;
          if (!ref.HasForCore(c)) break;
          ASSERT_TRUE(same(xbar.PopForCore(c), ref.PopForCore(c)))
              << "core " << c << " cycle " << now;
        }
        ASSERT_EQ(xbar.HasForCore(c), ref.HasForCore(c));
      }

      const Crossbar::QueueDepths d = xbar.Depths();
      const Crossbar::QueueDepths r = ref.Depths();
      ASSERT_EQ(d.core_inject, r.core_inject) << "cycle " << now;
      ASSERT_EQ(d.partition_inject, r.partition_inject) << "cycle " << now;
      ASSERT_EQ(d.in_flight, r.in_flight) << "cycle " << now;
      ASSERT_EQ(d.to_partition, r.to_partition) << "cycle " << now;
      ASSERT_EQ(d.to_core, r.to_core) << "cycle " << now;
      ASSERT_EQ(xbar.packets_delivered, ref.packets_delivered)
          << "cycle " << now;
      ASSERT_EQ(xbar.Idle(), ref.Idle()) << "cycle " << now;
    }
    // The stalled consumers really backed packets up behind full queues.
    EXPECT_GT(ref.max_blocked, 20u);
  }
}

// Bulk serialization against the per-edge reference above, whose ports
// add bytes_per_cycle_per_port on every edge: seeded traffic of mixed
// sizes from cores (before the tick, as the core domain injects) and
// partitions (after it, as the memory domain does), fabric stalls, and a
// crossbar ticked only on the cycles NextDue names -- as GpuSimulator
// ticks it.
TEST(Crossbar, BulkSerializationMatchesPerEdgeReference) {
  constexpr std::uint32_t kCores = 4;
  constexpr std::uint32_t kParts = 3;
  for (const std::uint32_t bw : {1u, 8u, 13u, 32u, 200u}) {
    for (const std::uint32_t latency : {1u, 60u}) {
      SCOPED_TRACE(::testing::Message()
                   << bw << " B/cycle, latency " << latency);
      IcntConfig cfg;
      cfg.bytes_per_cycle_per_port = bw;
      cfg.latency = latency;
      Rng rng(bw * 100 + latency);
      Crossbar xbar(cfg, kCores, kParts);
      RescanCrossbar ref(cfg, kCores, kParts);
      Addr next_addr = 0;
      const auto packet = [&](IcntPacket::Kind kind, std::uint32_t src,
                              std::uint32_t dst) {
        static constexpr std::uint32_t kSizes[] = {8, 40, 136};
        IcntPacket p;
        p.kind = kind;
        p.src = src;
        p.dst = dst;
        p.addr = next_addr++;
        p.bytes = rng.Below(4) == 0 ? 1 + static_cast<std::uint32_t>(
                                              rng.Below(300))
                                    : kSizes[rng.Below(3)];
        return p;
      };
      std::uint64_t skipped = 0;
      for (Cycle now = 1; now <= 4000; ++now) {
        // Bursts and lulls, so ports go idle and busy again.
        const bool burst = (now / 200) % 2 == 0;
        for (std::uint32_t c = 0; c < kCores; ++c) {
          if (xbar.CanInjectFromCore(c) && rng.Below(burst ? 3 : 40) == 0) {
            const IcntPacket p = packet(
                IcntPacket::Kind::kReadRequest, c,
                static_cast<std::uint32_t>(rng.Below(kParts)));
            xbar.InjectFromCore(c, p);
            ref.InjectFromCore(c, p);
          }
        }
        if (rng.Below(300) == 0) {
          const std::uint64_t cycles = 1 + rng.Below(40);
          xbar.InjectStallFor(cycles);
          ref.InjectStallFor(cycles);
        }

        if (xbar.NextDue(now) == now) {
          xbar.Tick(now);
        } else {
          ++skipped;
        }
        ref.Tick(now);

        for (std::uint32_t part = 0; part < kParts; ++part) {
          ASSERT_EQ(xbar.HasForPartition(part), ref.HasForPartition(part))
              << "partition " << part << " cycle " << now;
          if (ref.HasForPartition(part) && rng.Below(2) == 0) {
            ASSERT_EQ(xbar.PopForPartition(part).addr,
                      ref.PopForPartition(part).addr)
                << "partition " << part << " cycle " << now;
          }
          if (xbar.CanInjectFromPartition(part) &&
              rng.Below(burst ? 4 : 60) == 0) {
            const IcntPacket p = packet(
                IcntPacket::Kind::kReadReply, part,
                static_cast<std::uint32_t>(rng.Below(kCores)));
            xbar.InjectFromPartition(part, p);
            ref.InjectFromPartition(part, p);
          }
        }
        for (std::uint32_t c = 0; c < kCores; ++c) {
          ASSERT_EQ(xbar.HasForCore(c), ref.HasForCore(c))
              << "core " << c << " cycle " << now;
          while (ref.HasForCore(c)) {
            ASSERT_EQ(xbar.PopForCore(c).addr, ref.PopForCore(c).addr)
                << "core " << c << " cycle " << now;
          }
        }

        const Crossbar::QueueDepths d = xbar.Depths();
        const Crossbar::QueueDepths r = ref.Depths();
        ASSERT_EQ(d.core_inject, r.core_inject) << "cycle " << now;
        ASSERT_EQ(d.partition_inject, r.partition_inject) << "cycle " << now;
        ASSERT_EQ(d.in_flight, r.in_flight) << "cycle " << now;
        ASSERT_EQ(d.to_partition, r.to_partition) << "cycle " << now;
        ASSERT_EQ(d.to_core, r.to_core) << "cycle " << now;
        ASSERT_EQ(xbar.packets_delivered, ref.packets_delivered)
            << "cycle " << now;
      }
      EXPECT_GT(ref.packets_delivered, 300u);
      EXPECT_GT(skipped, 100u) << "the crossbar never skipped a tick";
    }
  }
}

}  // namespace
}  // namespace dlpsim
