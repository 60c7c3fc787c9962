// L1D management policies (paper §5.3 and §4).
//
//   Baseline          - LRU; stall (retry) on any reservation failure.
//   Stall-Bypass      - LRU; bypass instead of stalling, whatever the
//                       stall reason (MSHR full, no reservable line,
//                       full miss queue).
//   Global-Protection - protected-life replacement driven by ONE global
//                       protection distance (PDP emulation): a 1-entry
//                       prediction table fed by global VTA/TDA hits.
//   DLP               - per-instruction protection distances via the
//                       128-entry PDPT (the paper's contribution).
//
// The policies observe the access stream through narrow hooks called by
// L1DCache; they own the VTA and PDPT where applicable.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "cache/line.h"
#include "cache/tag_array.h"
#include "core/pdpt.h"
#include "core/vta.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

class TraceSink;

/// Outcome of asking a policy where a missing line may be placed.
struct VictimChoice {
  enum class Kind : std::uint8_t {
    kWay,     // replace this way
    kBypass,  // send the request around the cache
    kStall,   // no resource; retry next cycle
  };
  Kind kind = Kind::kStall;
  std::uint32_t way = kInvalidIndex;

  static VictimChoice Way(std::uint32_t w) {
    return {Kind::kWay, w};
  }
  static VictimChoice Bypass() { return {Kind::kBypass, kInvalidIndex}; }
  static VictimChoice Stall() { return {Kind::kStall, kInvalidIndex}; }
};

class ProtectionPolicy {
 public:
  virtual ~ProtectionPolicy() = default;

  virtual PolicyKind kind() const = 0;

  /// A completed access (hit, miss or bypass) queried `set`. DLP/GP
  /// decrement every line's protected life here (paper §4.1.1: bypassed
  /// requests also consume PL, releasing over-protected sets).
  virtual void OnSetQuery(std::span<CacheLine> set);

  /// A load hit on a filled line: attribute the hit, refresh PL, and move
  /// instruction ownership to the hitting instruction (paper §4.1.1).
  virtual void OnLoadHit(CacheLine& line, Pc pc);

  /// A load found the line RESERVED and merged into the MSHR. No hit is
  /// credited (the data is not in the cache yet) but the access still
  /// rewrites the PL field with the requester's PD.
  virtual void OnMergedMiss(CacheLine& line, Pc pc);

  /// A committed load miss (the access will be issued or bypassed, not
  /// stalled): probe the VTA and credit its stored instruction.
  virtual void OnLoadMiss(std::uint32_t set, Addr block, Pc pc);

  /// A line was reserved for the missing instruction: stamp insn ID + PL.
  virtual void OnReserve(CacheLine& line, Pc pc);

  /// A filled line was displaced: record its tag in the VTA.
  virtual void OnEviction(std::uint32_t set, const CacheLine& line);

  /// Where may a miss to `set` allocate?
  virtual VictimChoice PickVictim(const TagArray& tda, std::uint32_t set) = 0;

  /// Should an MSHR-full / miss-queue-full condition bypass instead of
  /// stalling? Only Stall-Bypass says yes.
  virtual bool BypassOnResourceStall() const { return false; }

  /// Sampling hook, called once per completed access.
  virtual void OnAccessSampled(Cycle now);

  /// Reset policy state between kernels.
  virtual void Reset();

  /// Attaches (or detaches, with nullptr) the event-trace sink. Shared
  /// with the owning L1DCache, which keeps the sink's cycle stamp
  /// current; `sm` tags emitted events. Protection policies emit VTA-hit,
  /// PD-recompute and PL-saturation records through it.
  void SetTrace(TraceSink* trace, std::uint16_t sm) {
    trace_ = trace;
    trace_sm_ = sm;
  }

  // Introspection for tests, benches and reports (null/0 when N/A).
  virtual const PdpTable* pdpt() const { return nullptr; }
  virtual const VictimTagArray* vta() const { return nullptr; }
  virtual std::uint32_t PdForPc(Pc) const { return 0; }

  // Mutable table access for the fault injector (robust/) only; the
  // normal simulation path never mutates policy tables from outside.
  virtual PdpTable* mutable_pdpt() { return nullptr; }
  virtual VictimTagArray* mutable_vta() { return nullptr; }

  // Lifetime telemetry, kept by the protected-life policies (zero under
  // Baseline and Stall-Bypass). Counted off completed policy work, never
  // read back into decisions, and not cleared by Reset().
  std::uint64_t pl_decrements = 0;  // PL decrements by set-query decay
  std::uint64_t vta_hits = 0;       // VTA hits credited on load misses

 protected:
  TraceSink* trace_ = nullptr;
  std::uint16_t trace_sm_ = 0;
};

/// Factory keyed by L1DConfig::policy.
std::unique_ptr<ProtectionPolicy> MakePolicy(const L1DConfig& cfg);

// --- concrete policies (exposed for direct unit testing) ---

class BaselinePolicy : public ProtectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kBaseline; }
  VictimChoice PickVictim(const TagArray& tda, std::uint32_t set) override;
};

class StallBypassPolicy : public ProtectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kStallBypass; }
  VictimChoice PickVictim(const TagArray& tda, std::uint32_t set) override;
  bool BypassOnResourceStall() const override { return true; }
};

/// Shared machinery for Global-Protection and DLP: VTA + prediction table
/// + protected-life replacement + bypass-on-full-protection.
class ProtectedLifePolicy : public ProtectionPolicy {
 public:
  ProtectedLifePolicy(const L1DConfig& cfg, std::uint32_t table_entries,
                      std::uint32_t insn_id_bits);

  void OnSetQuery(std::span<CacheLine> set) override;
  void OnLoadHit(CacheLine& line, Pc pc) override;
  void OnMergedMiss(CacheLine& line, Pc pc) override;
  void OnLoadMiss(std::uint32_t set, Addr block, Pc pc) override;
  void OnReserve(CacheLine& line, Pc pc) override;
  void OnEviction(std::uint32_t set, const CacheLine& line) override;
  VictimChoice PickVictim(const TagArray& tda, std::uint32_t set) override;
  void OnAccessSampled(Cycle now) override;
  void Reset() override;

  /// The protection schemes own a bypass datapath; like Stall-Bypass they
  /// use it instead of stalling when the MSHR or miss queue is exhausted.
  /// (This is required for the paper's Fig. 10 ordering DLP >= Stall-
  /// Bypass on every CI application: protection alone cannot recover the
  /// resource-stall cycles that SB eliminates.)
  bool BypassOnResourceStall() const override { return true; }

  const PdpTable* pdpt() const override { return &pdpt_; }
  const VictimTagArray* vta() const override { return &vta_; }
  std::uint32_t PdForPc(Pc pc) const override { return pdpt_.PdForPc(pc); }
  PdpTable* mutable_pdpt() override { return &pdpt_; }
  VictimTagArray* mutable_vta() override { return &vta_; }

 protected:
  PdpTable pdpt_;
  VictimTagArray vta_;
  SampleWindow window_;

 private:
  /// Common OnLoadHit/OnMergedMiss/OnReserve tail: move instruction
  /// ownership to `pc` and rewrite PL (tracing PL-field saturation).
  void StampOwnership(CacheLine& line, Pc pc);
};

class GlobalProtectionPolicy : public ProtectedLifePolicy {
 public:
  explicit GlobalProtectionPolicy(const L1DConfig& cfg);
  PolicyKind kind() const override { return PolicyKind::kGlobalProtection; }
};

class DlpPolicy : public ProtectedLifePolicy {
 public:
  explicit DlpPolicy(const L1DConfig& cfg);
  PolicyKind kind() const override { return PolicyKind::kDlp; }
};

}  // namespace dlpsim
