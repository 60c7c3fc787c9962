#include "analysis/trace_replay.h"

namespace dlpsim {

void TraceReplayer::Advance(Cycle now) {
  // Turn outgoing read requests into future fills; writes are absorbed.
  while (cache_.HasOutgoing()) {
    const L1DOutgoing out = cache_.PopOutgoing();
    if (out.write) continue;
    fills_.push_back(PendingFill{
        L1DResponse{out.block, out.no_fill, out.token}, now + fill_latency_});
  }
  while (!fills_.empty() && fills_.front().due <= now) {
    woken_.clear();
    cache_.Fill(fills_.front().response, now, woken_);
    fills_.pop_front();
  }
}

ReplayResult TraceReplayer::Replay(trace::TraceSource& source) {
  ReplayResult result;
  Cycle now = 0;
  const CacheStats before = cache_.stats();

  TraceAccess access;
  while (source.Next(&access)) {
    ++result.accesses;
    for (;;) {
      Advance(now);
      const AccessResult r = cache_.Access(
          MemAccess{access.addr, access.type, access.pc, /*token=*/0}, now);
      ++now;
      if (r != AccessResult::kReservationFail) break;
      ++result.stall_cycles;
      // A stalled replay must eventually make progress: fills due in the
      // future unblock it. fill_latency of 0 still advances `now`.
    }
  }
  // Drain outstanding requests and fills so back-to-back replays start
  // clean (the last access's miss may still sit in the outgoing queue).
  while (cache_.HasOutgoing() || !fills_.empty()) {
    Advance(now);
    ++now;
  }

  result.cycles = now;
  // Report the delta over this replay so sequential replays are additive.
  result.cache = cache_.stats();
  for (const CacheStatsField& f : CacheStatsFields()) {
    result.cache.*(f.member) -= before.*(f.member);
  }
  return result;
}

ReplayResult TraceReplayer::Replay(const std::vector<TraceAccess>& trace) {
  trace::VectorTraceSource source(trace);
  return Replay(source);
}

}  // namespace dlpsim
