#include "core/policies.h"

#include <algorithm>
#include <cassert>

#include "obs/trace_sink.h"

namespace dlpsim {

// ---------------------------------------------------------------------------
// Default (no-op) hook bodies shared by the plain-LRU policies.
// ---------------------------------------------------------------------------

void ProtectionPolicy::OnSetQuery(std::span<CacheLine>) {}
void ProtectionPolicy::OnLoadHit(CacheLine&, Pc) {}
void ProtectionPolicy::OnMergedMiss(CacheLine&, Pc) {}
void ProtectionPolicy::OnLoadMiss(std::uint32_t, Addr, Pc) {}
void ProtectionPolicy::OnReserve(CacheLine&, Pc) {}
void ProtectionPolicy::OnEviction(std::uint32_t, const CacheLine&) {}
void ProtectionPolicy::OnAccessSampled(Cycle) {}
void ProtectionPolicy::Reset() {}

namespace {
/// Plain LRU victim: INVALID wins, else LRU filled line, else (all lines
/// RESERVED) no victim.
VictimChoice LruVictim(const TagArray& tda, std::uint32_t set) {
  const std::uint32_t way =
      tda.LruWayWhere(set, [](const CacheLine&) { return true; });
  return way == kInvalidIndex ? VictimChoice::Stall() : VictimChoice::Way(way);
}
}  // namespace

// ---------------------------------------------------------------------------
// Baseline / Stall-Bypass
// ---------------------------------------------------------------------------

VictimChoice BaselinePolicy::PickVictim(const TagArray& tda,
                                        std::uint32_t set) {
  return LruVictim(tda, set);
}

VictimChoice StallBypassPolicy::PickVictim(const TagArray& tda,
                                           std::uint32_t set) {
  const VictimChoice c = LruVictim(tda, set);
  // Any would-be stall turns into a bypass (paper §5.3: Stall-Bypass
  // bypasses when a stall is detected for any reason).
  return c.kind == VictimChoice::Kind::kStall ? VictimChoice::Bypass() : c;
}

// ---------------------------------------------------------------------------
// ProtectedLifePolicy (Global-Protection and DLP)
// ---------------------------------------------------------------------------

namespace {
ProtectionConfig OverrideTable(ProtectionConfig prot, std::uint32_t entries,
                               std::uint32_t insn_id_bits) {
  prot.pdpt_entries = entries;
  prot.insn_id_bits = insn_id_bits;
  return prot;
}

std::uint32_t VtaWays(const L1DConfig& cfg) {
  return cfg.prot.vta_ways == 0 ? cfg.geom.ways : cfg.prot.vta_ways;
}
}  // namespace

ProtectedLifePolicy::ProtectedLifePolicy(const L1DConfig& cfg,
                                         std::uint32_t table_entries,
                                         std::uint32_t insn_id_bits)
    : pdpt_(OverrideTable(cfg.prot, table_entries, insn_id_bits), VtaWays(cfg)),
      vta_(cfg.geom.sets, VtaWays(cfg)),
      window_(cfg.prot) {}

void ProtectedLifePolicy::OnSetQuery(std::span<CacheLine> set) {
  std::uint32_t decrements = 0;
  for (CacheLine& line : set) {
    if (line.protected_life > 0) {
      --line.protected_life;
      ++decrements;
    }
  }
  pl_decrements += decrements;
}

void ProtectedLifePolicy::StampOwnership(CacheLine& line, Pc pc) {
  const std::uint32_t id = pdpt_.IndexOf(pc);
  line.insn_id = id;
  line.protected_life = pdpt_.Pd(id);
  if (trace_ != nullptr && line.protected_life == pdpt_.pd_max()) {
    trace_->Emit({.arg0 = id,
                  .block = line.block,
                  .pc = pc,
                  .sm = trace_sm_,
                  .kind = TraceEventKind::kPlSaturated});
  }
}

void ProtectedLifePolicy::OnLoadHit(CacheLine& line, Pc pc) {
  // Attribute the hit to the instruction that last owned the line, then
  // transfer ownership to the hitting instruction (paper §4.1.1).
  pdpt_.CreditTdaHit(line.insn_id);
  StampOwnership(line, pc);
}

void ProtectedLifePolicy::OnMergedMiss(CacheLine& line, Pc pc) {
  StampOwnership(line, pc);
}

void ProtectedLifePolicy::OnLoadMiss(std::uint32_t set, Addr block, Pc pc) {
  const VictimTagArray::HitInfo info = vta_.ProbeAndConsume(set, block);
  if (!info.hit) return;
  pdpt_.CreditVtaHit(info.insn_id);
  ++vta_hits;
  if (trace_ != nullptr) {
    trace_->Emit({.arg0 = info.insn_id,
                  .block = block,
                  .pc = pc,
                  .set = set,
                  .sm = trace_sm_,
                  .kind = TraceEventKind::kVtaHit});
  }
}

void ProtectedLifePolicy::OnReserve(CacheLine& line, Pc pc) {
  StampOwnership(line, pc);
}

void ProtectedLifePolicy::OnEviction(std::uint32_t set,
                                     const CacheLine& line) {
  vta_.Insert(set, line.block, line.insn_id);
}

VictimChoice ProtectedLifePolicy::PickVictim(const TagArray& tda,
                                             std::uint32_t set) {
  const std::uint32_t way = tda.LruWayWhere(
      set, [](const CacheLine& l) { return l.protected_life == 0; });
  if (way != kInvalidIndex) return VictimChoice::Way(way);

  // No unprotected victim. If the blocker is protection (at least one
  // filled line exists), bypass; if every way is RESERVED (fills in
  // flight), the miss must stall exactly like the baseline.
  auto view = tda.SetView(set);
  const bool any_filled =
      std::any_of(view.begin(), view.end(),
                  [](const CacheLine& l) { return IsFilled(l.state); });
  return any_filled ? VictimChoice::Bypass() : VictimChoice::Stall();
}

void ProtectedLifePolicy::OnAccessSampled(Cycle now) {
  if (!window_.OnAccess(now)) return;
  if (trace_ == nullptr) {
    pdpt_.EndSample();
  } else {
    // mean PD x1000 keeps the event payload integral without losing the
    // sub-unit motion of a 128-entry mean.
    const auto mean_milli = [this] {
      return static_cast<std::uint64_t>(pdpt_.MeanPd() * 1000.0);
    };
    const std::uint64_t before = mean_milli();
    const std::uint64_t tda_hits = pdpt_.global_tda_hits();
    const std::uint64_t vta_hits = pdpt_.global_vta_hits();
    const PdpTable::UpdatePath path = pdpt_.EndSample();
    trace_->Emit({.arg0 = before,
                  .arg1 = mean_milli(),
                  .arg2 = static_cast<std::uint64_t>(path),
                  .block = tda_hits,
                  .pc = static_cast<Pc>(vta_hits),
                  .sm = trace_sm_,
                  .kind = TraceEventKind::kPdSample});
  }
  window_.Restart(now);
}

void ProtectedLifePolicy::Reset() {
  pdpt_.Clear();
  vta_.Clear();
  window_.Restart(0);
}

GlobalProtectionPolicy::GlobalProtectionPolicy(const L1DConfig& cfg)
    : ProtectedLifePolicy(cfg, /*table_entries=*/1, /*insn_id_bits=*/0) {}

DlpPolicy::DlpPolicy(const L1DConfig& cfg)
    : ProtectedLifePolicy(cfg, cfg.prot.pdpt_entries, cfg.prot.insn_id_bits) {}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<ProtectionPolicy> MakePolicy(const L1DConfig& cfg) {
  switch (cfg.policy) {
    case PolicyKind::kBaseline:
      return std::make_unique<BaselinePolicy>();
    case PolicyKind::kStallBypass:
      return std::make_unique<StallBypassPolicy>();
    case PolicyKind::kGlobalProtection:
      return std::make_unique<GlobalProtectionPolicy>(cfg);
    case PolicyKind::kDlp:
      return std::make_unique<DlpPolicy>(cfg);
  }
  assert(false && "unknown policy kind");
  return nullptr;
}

}  // namespace dlpsim
