// One Streaming Multiprocessor: warps + dual GTO schedulers + LD/ST unit
// + the L1D cache, exchanging packets with the interconnect.
#pragma once

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
         std::uint32_t warps, SchedulerKind sched = SchedulerKind::kGto);

  /// One core-clock cycle: accept responses, dispatch memory ops, issue
  /// from both schedulers, and push outgoing traffic into the crossbar.
  void TickCore(Cycle now, Crossbar& icnt);

  bool Finished() const { return unfinished_warps_ == 0; }  // all retired
  bool Drained() const;   // Finished + all queues empty

  /// TickCore is a permanent no-op for this core: drained AND no
  /// background-traffic credit left that could still inject a packet.
  /// Sticky -- nothing can reactivate a core once this returns true --
  /// so the simulator skips inactive cores without changing results.
  bool Inactive() const;

  L1DCache& l1d() { return *l1d_; }
  const L1DCache& l1d() const { return *l1d_; }
  const LdStUnit& ldst() const { return ldst_; }
  const std::vector<Warp>& warps() const { return warps_; }
  const std::vector<WarpScheduler>& schedulers() const { return schedulers_; }
  /// White-box tests only: changing a warp behind the core's back plants
  /// the bookkeeping drift the invariant checker must catch.
  std::vector<Warp>& mutable_warps() { return warps_; }
  SmId id() const { return id_; }

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
  std::uint64_t other_traffic_credit_ = 0;  // committed insns since last pkt
  std::uint64_t other_traffic_rr_ = 0;      // destination rotation
};

}  // namespace dlpsim
