// One Streaming Multiprocessor: warps + dual GTO schedulers + LD/ST unit
// + the L1D cache, exchanging packets with the interconnect.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/l1d_cache.h"
#include "icnt/crossbar.h"
#include "sim/config.h"
#include "sim/types.h"
#include "sm/coalescer.h"
#include "sm/ldst_unit.h"
#include "sm/scheduler.h"
#include "sm/warp.h"

namespace dlpsim {

class SmCore {
 public:
  /// `warps` warps run `program`; global warp ids are
  /// id * warps + local_id so patterns can address across the whole GPU.
  SmCore(const SimConfig& cfg, SmId id, const Program* program,
         std::uint32_t warps);

  /// One core-clock cycle: accept responses, dispatch memory ops, issue
  /// from both schedulers, and push outgoing traffic into the crossbar.
  /// It first applies the cycles skipped since the last tick (CatchUp)
  /// and ends by recording cruise_end(): the last cycle through which
  /// every later tick would only repeat this one's issue side. That is
  /// `now` unless the LD/ST unit is idle, nothing is outgoing, the
  /// background credit stays below its threshold, and every scheduler is
  /// either mid-ALU-block on a greedy warp that can issue next cycle or
  /// has an empty ready set. The block's last slot and the credit's
  /// threshold crossing are left to real ticks. Calling TickCore on every
  /// cycle is always exact; GpuSimulator calls it only when due.
  void TickCore(Cycle now, Crossbar& icnt);

  /// The earliest cycle from `now` on that needs a TickCore: `now` while
  /// a reply waits in the crossbar, else the cycle after cruise_end():
  /// kNever while every warp waits on memory, and for good once the core
  /// has drained and owes no background packet.
  Cycle NextDue(Cycle now, const Crossbar& icnt) const {
    if (icnt.HasForCore(id_)) return now;
    return cruise_end_ == kNever ? kNever : std::max(now, cruise_end_ + 1);
  }

  /// Applies the skipped cycles after the last tick through
  /// min(now, cruise_end()): each cruising scheduler's greedy warp issues
  /// one ALU slot per cycle, and the issue counters and background credit
  /// grow to match. Idempotent. Until it runs, those counters lag.
  void CatchUp(Cycle now);

  /// See TickCore; kNever when only a reply can end the skip.
  Cycle cruise_end() const { return cruise_end_; }

  bool Finished() const { return unfinished_warps_ == 0; }  // all retired
  bool Drained() const;   // Finished + all queues empty

  L1DCache& l1d() { return *l1d_; }
  const L1DCache& l1d() const { return *l1d_; }
  const LdStUnit& ldst() const { return ldst_; }
  const std::vector<Warp>& warps() const { return warps_; }
  const std::vector<WarpScheduler>& schedulers() const { return schedulers_; }
  /// White-box tests only: changing a warp behind the core's back plants
  /// the bookkeeping drift the invariant checker must catch.
  std::vector<Warp>& mutable_warps() { return warps_; }
  SmId id() const { return id_; }
  std::uint32_t warp_size() const { return cfg_.core.warp_size; }
  /// Committed thread instructions since the last background packet.
  std::uint64_t other_traffic_credit() const { return other_traffic_credit_; }
  /// The credit at which a background packet is due; 0 when the
  /// configuration sends none.
  std::uint64_t other_traffic_threshold() const {
    return std::uint64_t{cfg_.other_traffic_per_insns} * cfg_.core.warp_size;
  }

  // --- statistics ---
  std::uint64_t committed_thread_insns = 0;
  std::uint64_t committed_mem_insns = 0;    // thread-level memory insns
  std::uint64_t issued_warp_insns = 0;
  std::uint64_t load_block_cycles = 0;      // total warp-blocked-on-load time
  std::uint64_t load_block_events = 0;

 private:
  void AcceptResponses(Cycle now, Crossbar& icnt);
  void IssueFrom(WarpScheduler& sched, Cycle now);
  void DrainOutgoing(Crossbar& icnt);
  void InjectBackgroundTraffic(Crossbar& icnt);
  Cycle CruiseEnd(Cycle now) const;
  /// The scheduler that owns warp `w` (GPGPU-Sim's modulo split).
  WarpScheduler& SchedulerOf(std::uint32_t w) {
    return schedulers_[w % cfg_.core.num_schedulers];
  }

  SimConfig cfg_;
  SmId id_;
  const Program* program_;
  std::vector<Warp> warps_;
  std::vector<WarpScheduler> schedulers_;
  std::unique_ptr<L1DCache> l1d_;
  LdStUnit ldst_;
  Coalescer coalescer_;
  std::uint32_t unfinished_warps_ = 0;      // warps not yet retired
  std::vector<std::uint32_t> woken_;        // LD/ST wakes, reused per tick
  std::vector<MshrToken> filled_;           // tokens a fill wakes, reused
  std::uint64_t other_traffic_credit_ = 0;  // committed insns since last pkt
  std::uint64_t other_traffic_rr_ = 0;      // destination rotation
  Cycle synced_ = 0;       // last cycle whose issue side is applied
  Cycle cruise_end_ = 0;
};

}  // namespace dlpsim
