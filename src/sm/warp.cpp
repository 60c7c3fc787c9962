#include "sm/warp.h"

#include <cassert>

namespace dlpsim {

void Warp::AdvanceIssue(Cycle now) {
  assert(Issueable(now) && program_ != nullptr);
  (void)now;
  // A BUSY warp whose latency elapsed is logically READY; normalize.
  state_ = State::kReady;

  const Instruction& insn = program_->body()[body_idx_];
  if (++intra_count_ < insn.count) return;

  intra_count_ = 0;
  if (++body_idx_ < program_->body().size()) return;

  body_idx_ = 0;
  if (++iter_ >= program_->iterations()) finished_ = true;
}

}  // namespace dlpsim
