#include "sm/ldst_unit.h"

#include <cassert>

namespace dlpsim {

WarpMemOp& LdStUnit::NextSlot() {
  assert(CanAccept());
  WarpMemOp& op = slots_[Wrap(head_ + size_)];
  op.next = 0;
  return op;
}

void LdStUnit::Commit() {
  assert(CanAccept());
  assert(!slots_[Wrap(head_ + size_)].lines.empty());
  ++size_;
}

void LdStUnit::Tick(Cycle now, std::vector<Warp>& warps,
                    std::vector<std::uint32_t>& woken) {
  for (std::uint32_t slot = 0; slot < cfg_.ldst_width; ++slot) {
    if (size_ == 0) return;
    WarpMemOp& op = slots_[head_];
    Warp& warp = warps[op.warp_index];

    const MemAccess access{op.lines[op.next], op.type, op.pc,
                           static_cast<MshrToken>(op.warp_index)};
    const AccessResult result = l1d_->Access(access, now);

    switch (result) {
      case AccessResult::kReservationFail:
        ++stall_cycles;
        return;  // head-of-line blocking: retry next cycle
      case AccessResult::kHit:
      case AccessResult::kStoreSent:
        break;
      case AccessResult::kMissIssued:
      case AccessResult::kMissMerged:
      case AccessResult::kBypassed:
        if (op.type == AccessType::kLoad) warp.AddOutstanding(1);
        break;
    }

    if (++op.next == op.lines.size()) {
      if (op.type == AccessType::kLoad) {
        warp.OnMemOpDispatched();
        if (warp.Quiescent()) woken.push_back(op.warp_index);
      }
      head_ = Wrap(head_ + 1);
      --size_;
    }
  }
}

}  // namespace dlpsim
