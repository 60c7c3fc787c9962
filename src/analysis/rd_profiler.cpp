#include "analysis/rd_profiler.h"

#include <algorithm>

namespace dlpsim {

std::uint32_t RdBucket(std::uint64_t rd) {
  if (rd <= 4) return 0;
  if (rd <= 8) return 1;
  if (rd <= 64) return 2;
  return 3;
}

RdProfiler::Slot& RdProfiler::SetTrace::Find(Addr block) {
  // Fibonacci hashing: the top bits of the product mix every bit of the
  // block number, so strided blocks still spread over the table.
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = (block * 0x9e3779b97f4a7c15ull) >> shift;;
       i = (i + 1) & mask) {
    Slot& s = slots[i];
    if (s.last == 0 || s.block == block) return s;
  }
}

void RdProfiler::SetTrace::Grow() {
  std::vector<Slot> old(slots.size() * 2);
  old.swap(slots);
  --shift;
  for (const Slot& s : old) {
    if (s.last != 0) Find(s.block) = s;
  }
}

RddHistogram& RdProfiler::PcHistogram(Pc pc) {
  for (auto& [p, hist] : per_pc_) {
    if (p == pc) return hist;
  }
  return per_pc_.emplace_back(pc, RddHistogram{}).second;
}

void RdProfiler::OnAccess(std::uint32_t set, Addr block, Pc pc,
                          AccessType /*type*/, bool hit) {
  ++accesses_;
  SetTrace& trace = per_set_[set];
  const std::uint64_t now = ++trace.counter;
  Slot& slot = trace.Find(block);
  if (slot.last == 0) {  // first touch: a compulsory access
    slot = {block, now};
    if (++trace.used * 2 > trace.slots.size()) trace.Grow();
    return;
  }
  const std::uint64_t rd = now - slot.last;
  slot.last = now;
  global_.Add(rd);
  PcHistogram(pc).Add(rd);
  if (!hit) ++reuse_misses_;
}

void RdProfiler::Reset() {
  for (SetTrace& t : per_set_) {
    t.counter = 0;
    t.used = 0;
    std::fill(t.slots.begin(), t.slots.end(), Slot{});
  }
  global_ = RddHistogram{};
  per_pc_.clear();
  accesses_ = 0;
  reuse_misses_ = 0;
}

}  // namespace dlpsim
