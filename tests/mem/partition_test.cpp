#include "mem/partition.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cache/stats.h"
#include "sim/rng.h"

namespace dlpsim {
namespace {

SimConfig FastConfig() {
  SimConfig cfg;
  cfg.num_partitions = 1;
  cfg.num_cores = 1;
  cfg.icnt.latency = 2;
  cfg.l2.latency = 4;
  cfg.dram.t_row_hit = 4;
  cfg.dram.t_row_miss = 8;
  cfg.dram.t_rc = 6;
  return cfg;
}

IcntPacket ReadReq(Addr addr, std::uint32_t src = 0, MshrToken token = 5) {
  IcntPacket p;
  p.kind = IcntPacket::Kind::kReadRequest;
  p.addr = addr;
  p.src = src;
  p.dst = 0;
  p.token = token;
  return p;
}

/// Drives partition 0 until a reply lands in the crossbar's core queue.
bool RunForReply(MemoryPartition& part, Crossbar& icnt, IcntPacket* reply,
                 Cycle max_cycles = 2000) {
  for (Cycle now = 1; now <= max_cycles; ++now) {
    part.Tick(now, icnt);
    icnt.Tick(now);
    if (icnt.HasForCore(0)) {
      *reply = icnt.PopForCore(0);
      return true;
    }
  }
  return false;
}

TEST(MemoryPartition, ReadMissGoesThroughDramAndReplies) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 1, 1);
  MemoryPartition part(cfg, 0);

  icnt.InjectFromCore(0, ReadReq(0x1000, 0, 42));
  // Let the request reach the partition.
  for (Cycle now = 1; now < 10; ++now) icnt.Tick(now);

  IcntPacket reply;
  ASSERT_TRUE(RunForReply(part, icnt, &reply));
  EXPECT_EQ(reply.kind, IcntPacket::Kind::kReadReply);
  EXPECT_EQ(reply.token, 42u);
  EXPECT_EQ(reply.addr, 0x1000u);
  EXPECT_EQ(part.l2().stats().load_misses, 1u);
  EXPECT_EQ(part.dram().reads, 1u);
}

TEST(MemoryPartition, SecondReadHitsInL2) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 1, 1);
  MemoryPartition part(cfg, 0);

  icnt.InjectFromCore(0, ReadReq(0x1000));
  for (Cycle now = 1; now < 10; ++now) icnt.Tick(now);
  IcntPacket reply;
  ASSERT_TRUE(RunForReply(part, icnt, &reply));

  icnt.InjectFromCore(0, ReadReq(0x1000));
  for (Cycle now = 3000; now < 3010; ++now) icnt.Tick(now);
  ASSERT_TRUE(RunForReply(part, icnt, &reply));
  EXPECT_EQ(part.l2().stats().load_hits, 1u);
  EXPECT_EQ(part.dram().reads, 1u);  // no second DRAM read
}

TEST(MemoryPartition, WritesAreAbsorbedWithoutReply) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 1, 1);
  MemoryPartition part(cfg, 0);

  IcntPacket write;
  write.kind = IcntPacket::Kind::kWrite;
  write.addr = 0x2000;
  write.src = 0;
  write.dst = 0;
  write.bytes = 136;
  icnt.InjectFromCore(0, write);
  for (Cycle now = 1; now < 20; ++now) {
    icnt.Tick(now);
    part.Tick(now, icnt);
  }
  // Write miss forwards to DRAM; no reply is generated.
  for (Cycle now = 20; now < 200; ++now) part.Tick(now, icnt);
  EXPECT_FALSE(icnt.HasForCore(0));
  EXPECT_EQ(part.dram().writes, 1u);
}

TEST(MemoryPartition, OtherTrafficIsAbsorbed) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 1, 1);
  MemoryPartition part(cfg, 0);
  IcntPacket other;
  other.kind = IcntPacket::Kind::kOther;
  other.dst = 0;
  other.bytes = 100;
  icnt.InjectFromCore(0, other);
  for (Cycle now = 1; now < 50; ++now) {
    icnt.Tick(now);
    part.Tick(now, icnt);
  }
  EXPECT_FALSE(icnt.HasForCore(0));
  EXPECT_TRUE(part.Idle());
}

TEST(MemoryPartition, MergedReadsGetIndividualReplies) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 2, 1);
  MemoryPartition part(cfg, 0);

  icnt.InjectFromCore(0, ReadReq(0x3000, 0, 1));
  icnt.InjectFromCore(1, ReadReq(0x3000, 1, 2));
  for (Cycle now = 1; now < 10; ++now) icnt.Tick(now);

  int replies = 0;
  for (Cycle now = 10; now < 2000 && replies < 2; ++now) {
    part.Tick(now, icnt);
    icnt.Tick(now);
    while (icnt.HasForCore(0)) {
      icnt.PopForCore(0);
      ++replies;
    }
    while (icnt.HasForCore(1)) {
      icnt.PopForCore(1);
      ++replies;
    }
  }
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(part.dram().reads, 1u);  // one fetch for both
  EXPECT_EQ(part.l2().stats().mshr_merges, 1u);
}

TEST(MemoryPartition, RepliesLeaveInScheduleOrderAcrossL2AndDram) {
  // Replies queue while the partition's crossbar port is full: a DRAM fill
  // (token 3), then an L2 hit (token 2), then a second fill (token 1)
  // that becomes ready on the same memory cycle as the hit. Once the port
  // drains they must reach the core in schedule order: 3, 2, 1.
  SimConfig cfg = FastConfig();
  cfg.num_cores = 2;
  Crossbar icnt(cfg.icnt, 2, 1);
  MemoryPartition part(cfg, 0);
  Cycle now = 0;
  std::vector<MshrToken> got;
  auto step = [&] {
    ++now;
    part.Tick(now, icnt);
    icnt.Tick(now);
    while (icnt.HasForCore(0)) got.push_back(icnt.PopForCore(0).token);
    while (icnt.HasForCore(1)) icnt.PopForCore(1);
  };

  // Warm the L2 with the block the hit will read.
  const Addr hit_addr = 0x1000;
  icnt.InjectFromCore(0, ReadReq(hit_addr, 0, 100));
  while (got.empty() && now < 2000) step();
  ASSERT_EQ(got, std::vector<MshrToken>{100});
  got.clear();

  // Fill the partition port with long filler replies for core 1.
  IcntPacket filler;
  filler.kind = IcntPacket::Kind::kReadReply;
  filler.dst = 1;
  filler.bytes = 32 * 400;  // 400 icnt cycles each at 32 B/cycle
  while (icnt.CanInjectFromPartition(0)) icnt.InjectFromPartition(0, filler);

  // Requests reach the partition one per cycle: two misses to different
  // DRAM banks at cycles t and t+1, then spacers, then the hit. Fill 3
  // issues at t+1 and lands at t+1+t_row_miss+burst = t+17; fill 1 issues
  // at t+2 and queues behind it on the data bus until t+25. The hit is
  // processed at t+2+kSpacers and ready l2.latency = 4 cycles later.
  constexpr int kSpacers = 19;
  const Addr row_bytes = cfg.dram.row_bytes;
  std::deque<IcntPacket> to_send = {ReadReq(0x40000, 0, 3),
                                    ReadReq(0x40000 + row_bytes, 0, 1)};
  IcntPacket spacer;
  spacer.kind = IcntPacket::Kind::kOther;
  spacer.bytes = 8;
  for (int i = 0; i < kSpacers; ++i) to_send.push_back(spacer);
  to_send.push_back(ReadReq(hit_addr, 0, 2));

  std::vector<Cycle> scheduled;  // cycles the reply count grew
  std::size_t replies = 0;
  while (scheduled.size() < 3 && now < 2000) {
    while (!to_send.empty() && icnt.CanInjectFromCore(0)) {
      icnt.InjectFromCore(0, to_send.front());
      to_send.pop_front();
    }
    step();
    const std::size_t depth = part.Depths().replies;
    if (depth > replies) scheduled.push_back(now);
    replies = depth;
  }
  ASSERT_EQ(scheduled.size(), 3u);
  ASSERT_TRUE(got.empty()) << "port should still be full";
  // Fill 3 is ready when scheduled; the hit is ready l2.latency after it is
  // scheduled, on the same cycle as fill 1.
  EXPECT_EQ(scheduled[1] + cfg.l2.latency, scheduled[2])
      << "fill " << scheduled[0] << " hit " << scheduled[1] << " fill "
      << scheduled[2];

  while (got.size() < 3 && now < 20000) step();
  EXPECT_EQ(got, (std::vector<MshrToken>{3, 2, 1}));
}

TEST(MemoryPartition, IdleWhenDrained) {
  const SimConfig cfg = FastConfig();
  Crossbar icnt(cfg.icnt, 1, 1);
  MemoryPartition part(cfg, 0);
  EXPECT_TRUE(part.Idle());
  icnt.InjectFromCore(0, ReadReq(0));
  for (Cycle now = 1; now < 10; ++now) icnt.Tick(now);
  IcntPacket reply;
  ASSERT_TRUE(RunForReply(part, icnt, &reply));
  EXPECT_TRUE(part.Idle());
}

// One crossbar and its partitions, for the lockstep test below.
struct PartitionRig {
  explicit PartitionRig(const SimConfig& cfg)
      : icnt(cfg.icnt, cfg.num_cores, cfg.num_partitions) {
    for (PartitionId p = 0; p < cfg.num_partitions; ++p) {
      parts.emplace_back(cfg, p);
    }
  }
  Crossbar icnt;
  std::vector<MemoryPartition> parts;
};

// GpuSimulator ticks a partition only while it is Due. Rig A ticks every
// partition on every cycle, rig B only the due ones, under one seeded
// stream of reads, writes and background packets: bursts that overflow
// a small L2 MSHR (retries) and a one-bank DRAM queue (backlog), dirty
// L2 evictions, fabric stalls that fill the partitions' injection ports,
// stalled core-side consumers and injected partition stalls. Everything
// observable must match on every cycle.
TEST(MemoryPartition, SkippingTicksThatAreNotDueMatchesTickingEveryCycle) {
  SimConfig cfg = FastConfig();
  cfg.num_cores = 4;
  cfg.num_partitions = 3;
  cfg.l2.geom = CacheGeometry{8, 4, 128, IndexFunction::kLinear};
  cfg.l2.mshr_entries = 4;
  cfg.l2.mshr_max_merged = 2;
  cfg.l2.latency = 6;
  cfg.dram.banks = 1;  // bank conflicts fill the DRAM queue
  constexpr Addr kBlocks = 96;  // a small pool: L2 hits and dirty evictions
  std::uint64_t ticks = 0, skipped = 0, retries = 0, blocked_l2 = 0,
                blocked_dram = 0, backlogs = 0, stalls = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    PartitionRig a(cfg);
    PartitionRig b(cfg);
    std::vector<std::uint64_t> drain(cfg.num_cores, 1);  // pops per cycle
    MshrToken next_token = 1;
    Cycle icnt_now = 0;
    Cycle burst_end = 0;
    std::uint64_t reads = 0;  // per 10 packets in this burst
    for (Cycle now = 1; now <= 12000; ++now) {
      // Read-heavy and write-heavy bursts separated by quiet stretches.
      if (now >= burst_end + 400 && rng.Below(200) == 0) {
        burst_end = now + 50 + rng.Below(150);
        reads = rng.Below(2) == 0 ? 1 : 6;
      }
      for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        ASSERT_EQ(a.icnt.CanInjectFromCore(c), b.icnt.CanInjectFromCore(c));
        if (now >= burst_end || !a.icnt.CanInjectFromCore(c) ||
            rng.Below(2) == 0) {
          continue;
        }
        IcntPacket p;
        const std::uint64_t kind = rng.Below(10);
        p.kind = kind < reads ? IcntPacket::Kind::kReadRequest
                 : kind < 8   ? IcntPacket::Kind::kWrite
                              : IcntPacket::Kind::kOther;
        p.addr = rng.Below(kBlocks) * 128;
        p.src = c;
        // Half the packets go to partition 0, so its queues back up.
        p.dst = static_cast<std::uint32_t>(
            rng.Below(2) == 0 ? 0 : rng.Below(cfg.num_partitions));
        p.token = next_token++;
        p.bytes = p.kind == IcntPacket::Kind::kWrite ? 136
                  : p.kind == IcntPacket::Kind::kOther
                      ? static_cast<std::uint32_t>(8 + rng.Below(64))
                      : 8;
        a.icnt.InjectFromCore(c, p);
        b.icnt.InjectFromCore(c, p);
      }
      if (rng.Below(400) == 0) {
        // A fabric stall backs replies up behind full partition ports.
        const std::uint64_t cycles = 1 + rng.Below(150);
        a.icnt.InjectStallFor(cycles);
        b.icnt.InjectStallFor(cycles);
      }
      if (rng.Below(300) == 0) {
        const auto part = rng.Below(cfg.num_partitions);
        const std::uint64_t cycles = 1 + rng.Below(40);
        if (!a.parts[part].Idle()) ++stalls;
        a.parts[part].InjectStallFor(cycles);
        b.parts[part].InjectStallFor(cycles);
      }
      for (std::uint64_t& d : drain) {
        if (rng.Below(150) == 0) d = rng.Below(3);  // 0 stalls the consumer
      }

      for (std::uint32_t p = 0; p < cfg.num_partitions; ++p) {
        a.parts[p].Tick(now, a.icnt);
        ++ticks;
        if (b.parts[p].NextDue(now, b.icnt) == now) {
          b.parts[p].Tick(now, b.icnt);
        } else {
          ++skipped;
        }
        const MemoryPartition& part = a.parts[p];
        const auto ready = [now](const auto& fifo) {
          return !fifo.empty() && fifo.front().ready_at <= now;
        };
        if (!a.icnt.CanInjectFromPartition(p)) {
          if (ready(part.l2_replies())) ++blocked_l2;
          if (ready(part.dram_replies())) ++blocked_dram;
        }
        if (part.Depths().retry > 0) ++retries;
        if (part.Depths().dram_backlog > 0) ++backlogs;
      }
      // The interconnect runs on 2 of every 3 memory cycles.
      if (now % 3 != 0) {
        ++icnt_now;
        a.icnt.Tick(icnt_now);
        b.icnt.Tick(icnt_now);
      }

      for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        for (std::uint64_t k = 0; k < drain[c]; ++k) {
          ASSERT_EQ(a.icnt.HasForCore(c), b.icnt.HasForCore(c))
              << "core " << c << " cycle " << now;
          if (!a.icnt.HasForCore(c)) break;
          const IcntPacket ra = a.icnt.PopForCore(c);
          const IcntPacket rb = b.icnt.PopForCore(c);
          ASSERT_EQ(ra.token, rb.token) << "core " << c << " cycle " << now;
          ASSERT_EQ(ra.addr, rb.addr) << "core " << c << " cycle " << now;
        }
      }

      for (std::uint32_t p = 0; p < cfg.num_partitions; ++p) {
        SCOPED_TRACE(::testing::Message()
                     << "partition " << p << " cycle " << now);
        const MemoryPartition& pa = a.parts[p];
        const MemoryPartition& pb = b.parts[p];
        const MemoryPartition::QueueDepths da = pa.Depths();
        const MemoryPartition::QueueDepths db = pb.Depths();
        ASSERT_EQ(da.retry, db.retry);
        ASSERT_EQ(da.replies, db.replies);
        ASSERT_EQ(da.dram_backlog, db.dram_backlog);
        ASSERT_EQ(da.dram_queue, db.dram_queue);
        ASSERT_EQ(da.dram_in_service, db.dram_in_service);
        ASSERT_EQ(da.l2_pending, db.l2_pending);
        for (const CacheStatsField& f : CacheStatsFields()) {
          ASSERT_EQ(pa.l2().stats().*f.member, pb.l2().stats().*f.member)
              << f.name;
        }
        ASSERT_EQ(pa.dram().reads, pb.dram().reads);
        ASSERT_EQ(pa.dram().writes, pb.dram().writes);
        ASSERT_EQ(pa.dram().row_hits, pb.dram().row_hits);
        ASSERT_EQ(pa.dram().row_misses, pb.dram().row_misses);
        ASSERT_EQ(pa.requests_served, pb.requests_served);
        ASSERT_EQ(pa.Idle(), pb.Idle());
      }
      ASSERT_EQ(a.icnt.packets_delivered, b.icnt.packets_delivered)
          << "cycle " << now;
    }
  }
  // The stream reached every source of partition work, and most ticks
  // found nothing due.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(blocked_l2, 0u);
  EXPECT_GT(blocked_dram, 0u);
  EXPECT_GT(backlogs, 0u);
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(skipped * 2, ticks) << skipped << " of " << ticks << " skipped";
}

}  // namespace
}  // namespace dlpsim
