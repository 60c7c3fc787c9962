#include "mem/partition.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

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

}  // namespace
}  // namespace dlpsim
