#include "core/l1d_cache.h"

#include <cassert>

#include "obs/profiler.h"
#include "obs/trace_sink.h"

namespace dlpsim {

const char* ToString(AccessResult r) {
  switch (r) {
    case AccessResult::kHit:
      return "hit";
    case AccessResult::kMissIssued:
      return "miss_issued";
    case AccessResult::kMissMerged:
      return "miss_merged";
    case AccessResult::kBypassed:
      return "bypassed";
    case AccessResult::kStoreSent:
      return "store_sent";
    case AccessResult::kReservationFail:
      return "reservation_fail";
  }
  return "?";
}

L1DCache::L1DCache(const L1DConfig& cfg)
    : cfg_(cfg),
      tda_(cfg.geom),
      mshr_(cfg.mshr_entries, cfg.mshr_max_merged),
      policy_(MakePolicy(cfg)),
      mshr_occupancy_(cfg.mshr_entries + std::size_t{1}, 0) {}

void L1DCache::CommitQuery(const MemAccess& access, std::uint32_t set,
                           Addr block, bool hit, Cycle now) {
  if (observer_ != nullptr) {
    observer_->OnAccess(set, block, access.pc, access.type, hit);
  }
  ++stats_.accesses;
  obs::ProfileSpan span(profiler_, obs::Phase::kPolicyUpdate);
  policy_->OnSetQuery(tda_.SetView(set));
  policy_->OnAccessSampled(now);
}

void L1DCache::SetTraceSink(TraceSink* sink, std::uint32_t sm_id) {
  trace_ = sink;
  sm_ = static_cast<std::uint16_t>(sm_id);
  policy_->SetTrace(sink, sm_);
}

void L1DCache::TraceBypass(std::uint32_t set, Addr block, Pc pc,
                           BypassReason reason) {
  if (trace_ == nullptr) return;
  trace_->Emit({.arg0 = static_cast<std::uint64_t>(reason),
                .block = block,
                .pc = pc,
                .set = set,
                .sm = sm_,
                .kind = TraceEventKind::kBypass});
}

void L1DCache::PushOutgoing(L1DOutgoing req) {
  assert(outgoing_.size() < cfg_.miss_queue_entries);
  outgoing_.push_back(req);
}

L1DOutgoing L1DCache::PopOutgoing() {
  assert(!outgoing_.empty());
  ++epoch_;
  L1DOutgoing front = outgoing_.front();
  outgoing_.pop_front();
  return front;
}

void L1DCache::EvictFor(std::uint32_t set, std::uint32_t way, Addr new_block,
                        Pc pc) {
  const CacheLine previous = tda_.Reserve(set, way, new_block, pc);
  if (!IsFilled(previous.state)) return;
  ++stats_.evictions;
  policy_->OnEviction(set, previous);
  if (trace_ != nullptr) {
    trace_->Emit({.arg0 = previous.state == LineState::kModified ? 1u : 0u,
                  .block = previous.block,
                  .pc = previous.src_pc,
                  .set = set,
                  .sm = sm_,
                  .kind = TraceEventKind::kEviction});
  }
  if (previous.state == LineState::kModified) {
    ++stats_.writebacks;
    PushOutgoing(L1DOutgoing{.block = previous.block,
                             .write = true,
                             .no_fill = true,
                             .pc = previous.src_pc,
                             .token = 0,
                             .payload_bytes = cfg_.geom.line_bytes});
  }
}

void L1DCache::InjectProtectedLifeFlip(std::uint32_t set, std::uint32_t way,
                                       std::uint32_t bit) {
  ++epoch_;
  CacheLine& line = tda_.At(set, way);
  if (!IsOccupied(line.state)) return;  // PL is meaningless when invalid
  const std::uint32_t pd_max = cfg_.prot.pd_max();
  std::uint32_t corrupted = (line.protected_life ^ bit) & pd_max;
  if (corrupted == line.protected_life) corrupted = line.protected_life ^ 1u;
  corrupted &= pd_max;
  line.protected_life = corrupted;
}

AccessResult L1DCache::Access(const MemAccess& access, Cycle now) {
  obs::ProfileSpan span(profiler_, obs::Phase::kCacheAccess);
  if (now < fault_blackout_until_) {
    // Injected controller blackout: behave exactly like a reservation
    // failure so the LD/ST unit retries next cycle.
    ++stats_.reservation_fails;
    return AccessResult::kReservationFail;
  }
  const Addr block = tda_.BlockOf(access.addr);
  const std::uint32_t set = tda_.SetOfBlock(block);
  if (trace_ != nullptr) trace_->SetNow(now);
  AccessResult result;
  if (RepeatsLastFailure(block, access.type)) {
    // A failure changes only reservation_fails, and its outcome depends
    // only on state the mutators own: the same probe would fail again.
    ++stats_.reservation_fails;
    result = AccessResult::kReservationFail;
  } else {
    result = access.type == AccessType::kLoad
                 ? AccessLoad(access, set, block, now)
                 : AccessStore(access, set, block, now);
    if (result == AccessResult::kReservationFail) {
      failed_epoch_ = epoch_;
      failed_block_ = block;
      failed_type_ = access.type;
    } else {
      ++epoch_;
    }
  }
  if (trace_ != nullptr) {
    trace_->Emit({.arg0 = static_cast<std::uint64_t>(result),
                  .block = block,
                  .pc = access.pc,
                  .set = set,
                  .sm = sm_,
                  .kind = TraceEventKind::kAccess});
  }
  return result;
}

AccessResult L1DCache::AccessLoad(const MemAccess& access, std::uint32_t set,
                                  Addr block, Cycle now) {
  const std::uint32_t way = tda_.Probe(set, block);

  // --- filled-line hit ---
  if (way != kInvalidIndex && IsFilled(tda_.At(set, way).state)) {
    CommitQuery(access, set, block, true, now);
    policy_->OnLoadHit(tda_.At(set, way), access.pc);
    tda_.Touch(set, way);
    ++stats_.loads;
    ++stats_.load_hits;
    return AccessResult::kHit;
  }

  // --- reserved-line hit: merge into the in-flight MSHR entry ---
  if (way != kInvalidIndex) {
    assert(tda_.At(set, way).state == LineState::kReserved);
    if (mshr_.CanMerge(block)) {
      CommitQuery(access, set, block, false, now);
      policy_->OnMergedMiss(tda_.At(set, way), access.pc);
      mshr_.Merge(block, access.token);
      ++stats_.loads;
      ++stats_.load_misses;
      ++stats_.mshr_merges;
      return AccessResult::kMissMerged;
    }
    // Unmergeable (entry at its merge limit): resource stall.
    if (policy_->BypassOnResourceStall() && !OutgoingFull()) {
      CommitQuery(access, set, block, false, now);
      policy_->OnLoadMiss(set, block, access.pc);
      ++stats_.loads;
      ++stats_.load_misses;
      ++stats_.bypasses;
      PushOutgoing(L1DOutgoing{.block = block,
                               .write = false,
                               .no_fill = true,
                               .pc = access.pc,
                               .token = access.token,
                               .payload_bytes = 0});
      TraceBypass(set, block, access.pc, BypassReason::kResourceStall);
      return AccessResult::kBypassed;
    }
    ++stats_.reservation_fails;
    return AccessResult::kReservationFail;
  }

  // --- true miss ---
  bool resource_bypass = false;
  VictimChoice choice = policy_->PickVictim(tda_, set);

  if (choice.kind == VictimChoice::Kind::kWay) {
    // A normal miss needs an MSHR entry, one outgoing slot for the read
    // request, and a second slot if the victim is dirty.
    const bool dirty_victim =
        tda_.At(set, choice.way).state == LineState::kModified;
    const std::size_t slots_needed = dirty_victim ? 2 : 1;
    const bool has_resources =
        mshr_.CanAllocate() &&
        outgoing_.size() + slots_needed <= cfg_.miss_queue_entries;
    if (has_resources) {
      CommitQuery(access, set, block, false, now);
      policy_->OnLoadMiss(set, block, access.pc);
      EvictFor(set, choice.way, block, access.pc);
      policy_->OnReserve(tda_.At(set, choice.way), access.pc);
      mshr_.Allocate(block, access.token);
      ++mshr_occupancy_[mshr_.size()];
      PushOutgoing(L1DOutgoing{.block = block,
                               .write = false,
                               .no_fill = false,
                               .pc = access.pc,
                               .token = 0,
                               .payload_bytes = 0});
      ++stats_.loads;
      ++stats_.load_misses;
      ++stats_.misses_issued;
      return AccessResult::kMissIssued;
    }
    // MSHR / miss-queue exhaustion.
    resource_bypass = policy_->BypassOnResourceStall();
    choice = resource_bypass ? VictimChoice::Bypass() : VictimChoice::Stall();
  }

  if (choice.kind == VictimChoice::Kind::kBypass && !OutgoingFull()) {
    CommitQuery(access, set, block, false, now);
    policy_->OnLoadMiss(set, block, access.pc);
    ++stats_.loads;
    ++stats_.load_misses;
    ++stats_.bypasses;
    PushOutgoing(L1DOutgoing{.block = block,
                             .write = false,
                             .no_fill = true,
                             .pc = access.pc,
                             .token = access.token,
                             .payload_bytes = 0});
    TraceBypass(set, block, access.pc,
                resource_bypass ? BypassReason::kResourceStall
                                : BypassReason::kNoVictim);
    return AccessResult::kBypassed;
  }

  ++stats_.reservation_fails;
  return AccessResult::kReservationFail;
}

AccessResult L1DCache::AccessStore(const MemAccess& access, std::uint32_t set,
                                   Addr block, Cycle now) {
  const std::uint32_t way = tda_.Probe(set, block);
  const bool hit = way != kInvalidIndex && IsFilled(tda_.At(set, way).state);

  if (hit && cfg_.write_policy == WritePolicy::kWriteBackOnHit) {
    CommitQuery(access, set, block, true, now);
    tda_.At(set, way).state = LineState::kModified;
    tda_.Touch(set, way);
    ++stats_.stores;
    ++stats_.store_hits;
    return AccessResult::kStoreSent;
  }

  // Write-through path (store miss, or any store under write-evict);
  // needs one outgoing slot.
  if (OutgoingFull()) {
    ++stats_.reservation_fails;
    return AccessResult::kReservationFail;
  }
  CommitQuery(access, set, block, hit, now);
  ++stats_.stores;
  if (hit) {
    // Write-evict (Fermi global stores): invalidate the cached copy.
    ++stats_.store_hits;
    ++stats_.store_invalidates;
    tda_.Invalidate(set, way);
  }
  PushOutgoing(L1DOutgoing{.block = block,
                           .write = true,
                           .no_fill = true,
                           .pc = access.pc,
                           .token = 0,
                           .payload_bytes = cfg_.geom.line_bytes});
  return AccessResult::kStoreSent;
}

void L1DCache::Fill(const L1DResponse& response, Cycle now,
                    std::vector<MshrToken>& woken) {
  ++epoch_;
  if (response.no_fill) {
    woken.push_back(response.token);
    return;
  }
  const std::uint32_t set = tda_.SetOfBlock(response.block);
  const bool filled = tda_.Fill(set, response.block);
  assert(filled && "fill for a block that is not reserved");
  (void)filled;
  ++stats_.fills;
  if (trace_ != nullptr) {
    trace_->SetNow(now);
    trace_->Emit({.block = response.block,
                  .set = set,
                  .sm = sm_,
                  .kind = TraceEventKind::kFill});
  }
  mshr_.Retire(response.block, woken);
}

void L1DCache::Reset() {
  ++epoch_;
  tda_ = TagArray(cfg_.geom);
  mshr_ = MshrTable(cfg_.mshr_entries, cfg_.mshr_max_merged);
  policy_->Reset();
  outgoing_.clear();
}

}  // namespace dlpsim
