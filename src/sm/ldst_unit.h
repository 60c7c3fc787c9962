// The LD/ST unit: an in-order queue of warp memory operations feeding the
// L1D one line transaction per cycle (ldst_width).
//
// This is where the paper's performance pathology lives: when the L1D
// reports a reservation failure the head transaction retries next cycle
// and everything behind it -- every other warp's memory op -- is blocked
// (paper §2: "all future accesses to the L1D cache will be stalled").
#pragma once

#include <cstdint>
#include <vector>

#include "core/l1d_cache.h"
#include "sim/config.h"
#include "sim/types.h"
#include "sm/warp.h"

namespace dlpsim {

struct WarpMemOp {
  std::uint32_t warp_index = 0;
  Pc pc = 0;
  AccessType type = AccessType::kLoad;
  std::vector<Addr> lines;     // coalesced transactions
  std::uint32_t next = 0;      // dispatch cursor
};

class LdStUnit {
 public:
  /// Allocates all ldst_queue_entries op slots up front; a slot's `lines`
  /// keeps its capacity across the ops it carries.
  LdStUnit(const CoreConfig& cfg, L1DCache* l1d)
      : cfg_(cfg), l1d_(l1d), slots_(cfg.ldst_queue_entries) {}

  bool CanAccept() const { return size_ < slots_.size(); }

  /// The free slot behind the queue tail, with its dispatch cursor reset.
  /// The caller overwrites every other field, then calls Commit().
  /// Pre: CanAccept().
  WarpMemOp& NextSlot();

  /// Queues the op built in NextSlot(). For loads the warp must already
  /// be blocked via Warp::BlockOnMem().
  void Commit();

  /// Dispatches up to ldst_width transactions from the head op. Appends
  /// to `woken` each load's warp that stopped waiting on memory because
  /// its last transaction dispatched with none outstanding (all hits).
  void Tick(Cycle now, std::vector<Warp>& warps,
            std::vector<std::uint32_t>& woken);

  bool Idle() const { return size_ == 0; }
  std::size_t queue_depth() const { return size_; }

  // --- statistics ---
  std::uint64_t stall_cycles = 0;       // cycles blocked on reservation fail

 private:
  std::size_t Wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  CoreConfig cfg_;
  L1DCache* l1d_;
  std::vector<WarpMemOp> slots_;  // ring: size_ ops from head_ on
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dlpsim
