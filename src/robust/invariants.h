// Opt-in structural invariant checker for the L1D and its DLP side
// structures, and for the timing-model invariants the engine's fast paths
// rely on (DESIGN.md section 5).
//
// The protection machinery keeps state that must fit its hardware fields
// or agree with a second structure (PL fields vs their 4-bit width,
// RESERVED lines vs MSHR entries, saturating PDPT counters vs their bit
// widths); a bug in any maintenance path corrupts replacement decisions
// silently. Likewise the interconnect, DRAM and partition queues visit
// only their due prefix, and the SM core keeps summaries of its warps in
// place of walks: a timing change that breaks their ordering or drifts
// their bookkeeping would go unnoticed. The checker re-derives each
// property by brute force.
//
// Enabled either per-process (DLPSIM_CHECK=1) or for a whole build
// (-DDLPSIM_CHECKED=ON, which the CI Debug job uses); DLPSIM_CHECK=0
// overrides the build default. GpuSimulator constructs and owns a checker
// automatically when enabled and runs it every `check_interval` core
// cycles plus once at the end of Run(). Checks never mutate simulator
// state, so enabling them cannot change results.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/types.h"

namespace dlpsim {
class Crossbar;
class DramChannel;
class GpuSimulator;
class L1DCache;
class L2Cache;
class MemoryPartition;
class SmCore;
}  // namespace dlpsim

namespace dlpsim::robust {

/// Thrown (by default) on the first violated invariant. `where` names
/// the component: "sm<id>", "icnt" or "partition<id>".
class InvariantError : public std::runtime_error {
 public:
  InvariantError(std::string check, std::string where, std::string details)
      : std::runtime_error("invariant '" + check + "' violated on " + where +
                           ": " + details),
        check_(std::move(check)),
        where_(std::move(where)),
        details_(std::move(details)) {}

  const std::string& check() const { return check_; }
  const std::string& where() const { return where_; }
  const std::string& details() const { return details_; }

 private:
  std::string check_;
  std::string where_;
  std::string details_;
};

/// Each check returns an empty string when the invariant holds, else a
/// description of the first violation found. All are pure observers.
///
/// Every cached line's PL fits the 4-bit field (<= prot.pd_max()).
std::string CheckPlClamp(const L1DCache& l1d);
/// RESERVED lines and MSHR entries are in bijection.
std::string CheckMshrConsistency(const L1DCache& l1d);
/// Per set: occupied lines have distinct blocks and distinct LRU stamps.
std::string CheckLruValidity(const L1DCache& l1d);
/// Every PDPT entry's PD and hit counters respect their bit widths.
std::string CheckPdpt(const L1DCache& l1d);

/// Runs every check against one L1D; returns "" or the first violation
/// (prefixed with the check name).
std::string CheckL1D(const L1DCache& l1d);

/// SmCore::Finished() agrees with a walk of the warps, and every
/// scheduler's ready set holds each owned warp that is unfinished and not
/// waiting on memory, and no warp waiting on memory. For a core whose
/// cruise_end() lies after `now` (its counters synced to `now`), the skip
/// contract holds: the LD/ST unit is idle, nothing is outgoing, the
/// background credit stays below its threshold through cruise_end(), and
/// each scheduler has an empty ready set or a greedy warp that can issue
/// on an ALU instruction with more slots left than the skip has cycles.
/// Prefixed like CheckL1D ("finished_count" / "ready_set" /
/// "core_cruise").
std::string CheckSmCore(const SmCore& core, Cycle now);
/// The crossbar's packets in transit are ordered by deliver_at
/// ("icnt_order"); its busy set holds exactly the ports with packets
/// ("icnt_busy"); and no serialization finishing, packet landing, packet
/// waiting for room or fault stall falls due before its next_due()
/// ("icnt_next_due"), the cycle until which GpuSimulator skips its tick.
std::string CheckCrossbar(const Crossbar& icnt);
/// DRAM requests in service complete in issue order ("dram_order").
std::string CheckDram(const DramChannel& dram);
/// The L2's flat MSHR is well formed ("l2_mshr"): its blocks are
/// distinct, each entry holds between 1 and mshr_max_merged waiters, and
/// every pooled waiter node is on exactly one list, a live entry's or the
/// free list.
std::string CheckL2Mshr(const L2Cache& l2);
/// CheckDram on the partition's channel; CheckL2Mshr on its L2; each
/// reply FIFO is ordered by ready_at ("reply_order"); and no queued work
/// falls due before the partition's next_due(), which is at most
/// `now_mem + 1` (the cycle after the last memory cycle ticked) while a
/// request waits to retry ("next_due").
std::string CheckPartition(const MemoryPartition& partition, Cycle now_mem);

class InvariantChecker {
 public:
  explicit InvariantChecker(Cycle check_interval = 4096,
                            bool throw_on_violation = true)
      : interval_(check_interval), throw_(throw_on_violation) {}

  bool Due(Cycle now) const { return now >= next_check_; }
  /// The first cycle on which Due holds.
  Cycle next_due() const { return next_check_; }

  /// Checks every SM (L1D and core), the crossbar and every partition.
  /// Throws InvariantError on the first violation (or records it, when
  /// constructed with throw_on_violation=false).
  void CheckAll(const GpuSimulator& gpu, Cycle now);

  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t violations() const { return violations_; }
  const std::string& last_violation() const { return last_violation_; }

 private:
  /// Records (and by default throws) `violation` if non-empty.
  void Report(const std::string& where, const std::string& violation);

  Cycle interval_;
  bool throw_;
  Cycle next_check_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_ = 0;
  std::string last_violation_;
};

/// True when invariant checking is requested for this process: the
/// DLPSIM_CHECK environment variable when set ("0" disables, anything
/// else enables), otherwise the DLPSIM_CHECKED compile-time default.
bool ChecksEnabledByEnv();

/// Returns an owning checker when ChecksEnabledByEnv(), else nullptr.
std::unique_ptr<InvariantChecker> MakeCheckerFromEnv();

}  // namespace dlpsim::robust
