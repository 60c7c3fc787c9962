// Warp execution state: a cursor over the Program plus the hazard state
// that gates issue (pending memory data, SFU busy time).
//
// Model simplifications (documented in DESIGN.md): warps execute with full
// 32-lane masks (no divergence) and a load blocks its warp until all of
// its line transactions return -- memory-level parallelism comes from the
// up-to-48 warps per SM, which is the dominant source on real GPUs.
#pragma once

#include <cstdint>

#include "sim/types.h"
#include "workloads/program.h"

namespace dlpsim {

class Warp {
 public:
  Warp() = default;
  Warp(WarpId id, std::uint64_t global_id, const Program* program)
      : id_(id), global_id_(global_id), program_(program) {
    finished_ = program_ == nullptr || program_->body().empty() ||
                program_->iterations() == 0;
  }

  enum class State : std::uint8_t {
    kReady,
    kWaitMem,  // blocked on outstanding load transactions
    kBusy,     // SFU latency
  };

  State state(Cycle now) const {
    if (state_ == State::kBusy && now >= busy_until_) return State::kReady;
    return state_;
  }

  /// Retired the whole program (no further issues; data may still be in
  /// flight -- see quiescent()).
  bool Finished() const { return finished_; }

  bool Issueable(Cycle now) const {
    return !finished_ && state(now) == State::kReady;
  }

  /// No memory transactions pending anywhere in the machine.
  bool Quiescent() const { return outstanding_ == 0 && !mem_op_in_flight_; }

  /// Blocked on a load until its transactions return (State::kWaitMem).
  bool WaitingOnMem() const { return state_ == State::kWaitMem; }

  /// The instruction the warp would issue next. Pre: !Finished().
  const Instruction& Current() const { return program_->body()[body_idx_]; }
  std::uint64_t iteration() const { return iter_; }

  /// Consumes one issue slot of the current instruction and advances the
  /// cursor; run-length instructions need `count` calls. Pre: Issueable.
  void AdvanceIssue(Cycle now);

  /// Issue slots left in the current instruction, the next one included.
  /// Pre: !Finished().
  std::uint32_t SlotsLeft() const { return Current().count - intra_count_; }

  /// Equals `n` AdvanceIssue calls that stay inside the current
  /// instruction: the core cycles GpuSimulator skipped (SmCore::CatchUp).
  /// Pre: Issueable at the first of them, and n < SlotsLeft().
  void AdvanceWithinInstruction(std::uint32_t n) {
    state_ = State::kReady;  // AdvanceIssue's BUSY -> READY normalization
    intra_count_ += n;
  }

  // --- memory hazard bookkeeping (driven by the LD/ST unit) ---
  void BlockOnMem(Cycle now) {
    state_ = State::kWaitMem;
    mem_op_in_flight_ = true;
    block_start_ = now;
  }
  void OnMemOpDispatched() {
    mem_op_in_flight_ = false;
    MaybeWake();
  }
  void AddOutstanding(std::uint32_t n) { outstanding_ += n; }
  void OnTransactionDone() {
    if (outstanding_ > 0) --outstanding_;
    MaybeWake();
  }
  std::uint32_t outstanding() const { return outstanding_; }

  void BusyFor(Cycle now, Cycle latency) {
    state_ = State::kBusy;
    busy_until_ = now + latency;
  }

  WarpId id() const { return id_; }
  std::uint64_t global_id() const { return global_id_; }
  Cycle block_start() const { return block_start_; }

 private:
  void MaybeWake() {
    if (state_ == State::kWaitMem && !mem_op_in_flight_ &&
        outstanding_ == 0) {
      state_ = State::kReady;
    }
  }

  WarpId id_ = 0;
  std::uint64_t global_id_ = 0;
  const Program* program_ = nullptr;

  State state_ = State::kReady;
  bool finished_ = true;
  Cycle busy_until_ = 0;
  Cycle block_start_ = 0;
  std::uint32_t outstanding_ = 0;
  bool mem_op_in_flight_ = false;

  std::uint64_t iter_ = 0;
  std::uint32_t body_idx_ = 0;
  std::uint32_t intra_count_ = 0;  // progress within a run-length block
};

}  // namespace dlpsim
