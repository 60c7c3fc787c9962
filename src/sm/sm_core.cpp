#include "sm/sm_core.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

SmCore::SmCore(const SimConfig& cfg, SmId id, const Program* program,
               std::uint32_t warps)
    : cfg_(cfg),
      id_(id),
      program_(program),
      l1d_(std::make_unique<L1DCache>(cfg.l1d)),
      ldst_(cfg.core, l1d_.get()),
      coalescer_(cfg.core.warp_size, cfg.l1d.geom.line_bytes) {
  assert(warps > 0 && warps <= cfg.core.max_warps);
  warps_.reserve(warps);
  for (std::uint32_t w = 0; w < warps; ++w) {
    warps_.emplace_back(w, std::uint64_t{id} * warps + w, program);
    if (!warps_.back().Finished()) ++unfinished_warps_;
  }
  for (std::uint32_t s = 0; s < cfg.core.num_schedulers; ++s) {
    schedulers_.emplace_back(s, cfg.core.num_schedulers, warps);
  }
}

void SmCore::AcceptResponses(Cycle now, Crossbar& icnt) {
  while (icnt.HasForCore(id_)) {
    const IcntPacket pkt = icnt.PopForCore(id_);
    assert(pkt.kind == IcntPacket::Kind::kReadReply);
    filled_.clear();
    l1d_->Fill(L1DResponse{pkt.addr / cfg_.l1d.geom.line_bytes, pkt.no_fill,
                           pkt.token},
               now, filled_);
    for (MshrToken token : filled_) {
      const auto index = static_cast<std::uint32_t>(token);
      Warp& w = warps_[index];
      w.OnTransactionDone();
      if (w.Quiescent()) {
        load_block_cycles += now - w.block_start();
        ++load_block_events;
        SchedulerOf(index).OnWoken(index);
      }
    }
  }
}

void SmCore::IssueFrom(WarpScheduler& sched, Cycle now) {
  const std::uint32_t w = sched.Pick(warps_, now);
  if (w == kInvalidIndex) return;
  Warp& warp = warps_[w];
  const Instruction& insn = warp.Current();

  if (insn.op == OpClass::kLoad || insn.op == OpClass::kStore) {
    if (!ldst_.CanAccept()) return;  // structural hazard; retry next cycle
    WarpMemOp& op = ldst_.NextSlot();
    op.warp_index = w;
    op.pc = insn.pc;
    op.type = insn.op == OpClass::kLoad ? AccessType::kLoad
                                        : AccessType::kStore;
    coalescer_.Transactions(*insn.pattern, warp.global_id(),
                            warp.iteration(), &op.lines);
    warp.AdvanceIssue(now);
    if (op.type == AccessType::kLoad) {
      warp.BlockOnMem(now);
      sched.OnBlocked(w);
    }
    ldst_.Commit();
    committed_mem_insns += cfg_.core.warp_size;
  } else if (insn.op == OpClass::kSfu) {
    warp.AdvanceIssue(now);
    warp.BusyFor(now, cfg_.core.sfu_latency);
  } else {
    warp.AdvanceIssue(now);  // ALU: fully pipelined
  }
  // Only an issue retires a warp, and it was live until this one.
  if (warp.Finished()) --unfinished_warps_;

  sched.OnIssued(w);
  ++issued_warp_insns;
  committed_thread_insns += cfg_.core.warp_size;
}

void SmCore::DrainOutgoing(Crossbar& icnt) {
  while (l1d_->HasOutgoing() && icnt.CanInjectFromCore(id_)) {
    const L1DOutgoing out = l1d_->PopOutgoing();
    IcntPacket pkt;
    pkt.addr = out.block * cfg_.l1d.geom.line_bytes;
    pkt.src = id_;
    pkt.dst = cfg_.PartitionOf(pkt.addr);
    pkt.no_fill = out.no_fill;
    pkt.token = out.token;
    pkt.pc = out.pc;
    if (out.write) {
      pkt.kind = IcntPacket::Kind::kWrite;
      pkt.bytes = out.payload_bytes + cfg_.icnt.control_overhead;
    } else {
      pkt.kind = IcntPacket::Kind::kReadRequest;
      pkt.bytes = cfg_.icnt.request_size;
    }
    icnt.InjectFromCore(id_, pkt);
  }
}

void SmCore::InjectBackgroundTraffic(Crossbar& icnt) {
  if (cfg_.other_traffic_per_insns == 0) return;
  while (other_traffic_credit_ >= other_traffic_threshold()) {
    if (!icnt.CanInjectFromCore(id_)) return;  // keep the credit, retry
    IcntPacket pkt;
    pkt.kind = IcntPacket::Kind::kOther;
    pkt.addr = 0;
    pkt.src = id_;
    pkt.dst = static_cast<std::uint32_t>((id_ + other_traffic_rr_++) %
                                         cfg_.num_partitions);
    pkt.bytes = cfg_.other_traffic_bytes;
    icnt.InjectFromCore(id_, pkt);
    other_traffic_credit_ -= other_traffic_threshold();
  }
}

void SmCore::CatchUp(Cycle now) {
  const Cycle to = std::min(now, cruise_end_);
  if (to <= synced_) return;
  const Cycle n = to - synced_;
  std::uint64_t issued = 0;
  for (const WarpScheduler& sched : schedulers_) {
    // A cruising scheduler whose greedy warp cannot issue has an empty
    // ready set and issued nothing.
    const std::uint32_t w = sched.greedy();
    if (w == kInvalidIndex || !warps_[w].Issueable(synced_ + 1)) continue;
    // n < SlotsLeft(), a 32-bit count: CruiseEnd capped the skip there.
    warps_[w].AdvanceWithinInstruction(static_cast<std::uint32_t>(n));
    issued += n;
  }
  issued_warp_insns += issued;
  committed_thread_insns += issued * cfg_.core.warp_size;
  other_traffic_credit_ += issued * cfg_.core.warp_size;
  synced_ = to;
}

Cycle SmCore::CruiseEnd(Cycle now) const {
  if (!ldst_.Idle() || l1d_->HasOutgoing()) return now;
  Cycle end = kNever;
  std::uint64_t issuers = 0;
  for (const WarpScheduler& sched : schedulers_) {
    const std::uint32_t w = sched.greedy();
    if (w != kInvalidIndex && warps_[w].Issueable(now + 1)) {
      if (warps_[w].Current().op != OpClass::kAlu) return now;
      // Only IssueFrom may retire the warp or move it onto a load, so
      // the block's last slot is left to a real tick.
      end = std::min<Cycle>(end, now + warps_[w].SlotsLeft() - 1);
      ++issuers;
    } else if (!sched.ReadySetEmpty()) {
      return now;
    }
  }
  if (cfg_.other_traffic_per_insns == 0) return end;
  const std::uint64_t threshold = other_traffic_threshold();
  if (other_traffic_credit_ >= threshold) return now;
  if (issuers == 0) return end;
  // InjectBackgroundTraffic runs on the cycle the credit reaches its
  // threshold.
  const std::uint64_t per_cycle = issuers * cfg_.core.warp_size;
  const std::uint64_t cycles_to_threshold =
      (threshold - other_traffic_credit_ + per_cycle - 1) / per_cycle;
  return std::min<Cycle>(end, now + cycles_to_threshold - 1);
}

void SmCore::TickCore(Cycle now, Crossbar& icnt) {
  CatchUp(now - 1);
  AcceptResponses(now, icnt);
  woken_.clear();
  ldst_.Tick(now, warps_, woken_);
  for (std::uint32_t w : woken_) SchedulerOf(w).OnWoken(w);

  const std::uint64_t committed_before = committed_thread_insns;
  for (WarpScheduler& sched : schedulers_) IssueFrom(sched, now);
  other_traffic_credit_ += committed_thread_insns - committed_before;

  DrainOutgoing(icnt);
  InjectBackgroundTraffic(icnt);
  synced_ = now;
  cruise_end_ = CruiseEnd(now);
}

bool SmCore::Drained() const {
  if (!Finished() || !ldst_.Idle() || l1d_->HasOutgoing()) return false;
  for (const Warp& w : warps_) {
    if (!w.Quiescent()) return false;
  }
  return true;
}

}  // namespace dlpsim
