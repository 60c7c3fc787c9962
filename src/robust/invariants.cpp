#include "robust/invariants.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/l1d_cache.h"
#include "gpu/simulator.h"
#include "sim/env.h"

namespace dlpsim::robust {

std::string CheckPlClamp(const L1DCache& l1d) {
  const std::uint32_t pd_max = l1d.config().prot.pd_max();
  const TagArray& tda = l1d.tda();
  for (std::uint32_t set = 0; set < tda.geom().sets; ++set) {
    auto view = tda.SetView(set);
    for (std::uint32_t way = 0; way < view.size(); ++way) {
      const CacheLine& line = view[way];
      if (IsOccupied(line.state) && line.protected_life > pd_max) {
        std::ostringstream os;
        os << "line (" << set << ", " << way << ") has protected_life "
           << line.protected_life << " > pd_max " << pd_max;
        return os.str();
      }
    }
  }
  return "";
}

std::string CheckMshrConsistency(const L1DCache& l1d) {
  // Every RESERVED line must have an in-flight MSHR entry for its block,
  // and vice versa (the L1D allocates both together and retires both on
  // fill). Count both directions and compare totals for the bijection.
  const TagArray& tda = l1d.tda();
  const MshrTable& mshr = l1d.mshr();
  std::uint64_t reserved = 0;
  for (std::uint32_t set = 0; set < tda.geom().sets; ++set) {
    for (const CacheLine& line : tda.SetView(set)) {
      if (line.state != LineState::kReserved) continue;
      ++reserved;
      if (!mshr.HasEntry(line.block)) {
        std::ostringstream os;
        os << "RESERVED line for block " << line.block << " in set " << set
           << " has no MSHR entry";
        return os.str();
      }
    }
  }
  // MSHR entries without a RESERVED line are legal only for bypassed
  // loads -- but those never allocate MSHR entries in this model, so any
  // excess entry is orphaned state.
  if (mshr.size() != reserved) {
    for (Addr block : mshr.Blocks()) {
      const std::uint32_t set = tda.SetOfBlock(block);
      const std::uint32_t way = tda.Probe(set, block);
      if (way == kInvalidIndex ||
          tda.SetView(set)[way].state != LineState::kReserved) {
        std::ostringstream os;
        os << "MSHR entry for block " << block
           << " has no matching RESERVED line in set " << set;
        return os.str();
      }
    }
    std::ostringstream os;
    os << "MSHR holds " << mshr.size() << " entries but the tag array has "
       << reserved << " RESERVED lines";
    return os.str();
  }
  return "";
}

std::string CheckLruValidity(const L1DCache& l1d) {
  const TagArray& tda = l1d.tda();
  for (std::uint32_t set = 0; set < tda.geom().sets; ++set) {
    auto view = tda.SetView(set);
    std::unordered_set<Addr> blocks;
    std::unordered_set<std::uint64_t> stamps;
    for (const CacheLine& line : view) {
      if (!IsOccupied(line.state)) continue;
      if (!blocks.insert(line.block).second) {
        std::ostringstream os;
        os << "set " << set << " holds block " << line.block << " twice";
        return os.str();
      }
      // Occupied lines always took a fresh ++use_clock_ stamp; a duplicate
      // stamp would make LRU selection ambiguous (and non-deterministic
      // under reordering).
      if (!stamps.insert(line.last_use).second) {
        std::ostringstream os;
        os << "set " << set << " has two occupied lines with LRU stamp "
           << line.last_use;
        return os.str();
      }
    }
  }
  return "";
}

std::string CheckPdpt(const L1DCache& l1d) {
  const PdpTable* pdpt = l1d.policy().pdpt();
  if (pdpt == nullptr) return "";  // baseline / stall-bypass
  const std::uint32_t pd_max = pdpt->pd_max();
  const std::uint32_t tda_max =
      (1u << l1d.config().prot.tda_hit_bits) - 1u;
  const std::uint32_t vta_max =
      (1u << l1d.config().prot.vta_hit_bits) - 1u;
  for (std::uint32_t i = 0; i < pdpt->size(); ++i) {
    if (pdpt->Pd(i) > pd_max) {
      std::ostringstream os;
      os << "PDPT entry " << i << " has PD " << pdpt->Pd(i) << " > pd_max "
         << pd_max;
      return os.str();
    }
    if (pdpt->tda_hits(i) > tda_max || pdpt->vta_hits(i) > vta_max) {
      std::ostringstream os;
      os << "PDPT entry " << i << " hit counters (" << pdpt->tda_hits(i)
         << ", " << pdpt->vta_hits(i) << ") exceed their bit widths";
      return os.str();
    }
  }
  return "";
}

std::string CheckL1D(const L1DCache& l1d) {
  struct Named {
    const char* name;
    std::string (*fn)(const L1DCache&);
  };
  static constexpr Named kChecks[] = {
      {"pl_clamp", CheckPlClamp},
      {"mshr_consistency", CheckMshrConsistency},
      {"lru_validity", CheckLruValidity},
      {"pdpt_bounds", CheckPdpt},
  };
  for (const Named& c : kChecks) {
    std::string violation = c.fn(l1d);
    if (!violation.empty()) {
      return std::string(c.name) + ": " + violation;
    }
  }
  return "";
}

namespace {
/// The skip contract of SmCore::CruiseEnd for cycles (now, cruise_end()].
std::string CheckCoreCruise(const SmCore& core, Cycle now) {
  const Cycle end = core.cruise_end();
  if (end <= now) return "";
  std::ostringstream os;
  os << "core_cruise: skipping through cycle " << end << " at cycle " << now
     << ", but ";
  if (!core.ldst().Idle()) {
    os << "the LD/ST unit holds " << core.ldst().queue_depth() << " ops";
    return os.str();
  }
  if (core.l1d().HasOutgoing()) {
    os << "the L1D has " << core.l1d().outgoing_size()
       << " requests outgoing";
    return os.str();
  }
  const Cycle skip = end - now;
  std::uint64_t issuers = 0;
  for (const WarpScheduler& sched : core.schedulers()) {
    if (sched.ReadySetEmpty()) continue;
    const std::uint32_t w = sched.greedy();
    if (w == kInvalidIndex || !core.warps()[w].Issueable(now + 1)) {
      os << "a scheduler has ready warps and no greedy warp that can issue";
      return os.str();
    }
    const Warp& warp = core.warps()[w];
    if (warp.Current().op != OpClass::kAlu || warp.SlotsLeft() <= skip) {
      os << "greedy warp " << w << " has " << warp.SlotsLeft()
         << " slots left in its instruction";
      return os.str();
    }
    ++issuers;
  }
  const std::uint64_t threshold = core.other_traffic_threshold();
  const std::uint64_t credit =
      core.other_traffic_credit() + skip * issuers * core.warp_size();
  if (threshold > 0 && credit >= threshold) {
    os << "the background credit reaches " << credit << ", its threshold is "
       << threshold;
    return os.str();
  }
  return "";
}
}  // namespace

std::string CheckSmCore(const SmCore& core, Cycle now) {
  const std::vector<Warp>& warps = core.warps();
  const bool all_finished =
      std::all_of(warps.begin(), warps.end(),
                  [](const Warp& w) { return w.Finished(); });
  if (core.Finished() != all_finished) {
    std::ostringstream os;
    os << std::boolalpha << "finished_count: Finished() is " << core.Finished()
       << " but a walk of the warps says " << all_finished;
    return os.str();
  }
  for (const WarpScheduler& sched : core.schedulers()) {
    for (std::uint32_t w = 0; w < warps.size(); ++w) {
      if (!sched.Owns(w)) continue;
      const char* problem = nullptr;
      if (warps[w].WaitingOnMem()) {
        if (sched.InReadySet(w)) problem = "waits on memory but is in";
      } else if (!warps[w].Finished() && !sched.InReadySet(w)) {
        problem = "can issue but is missing from";
      }
      if (problem != nullptr) {
        return "ready_set: warp " + std::to_string(w) + " " + problem +
               " the ready set";
      }
    }
  }
  return CheckCoreCruise(core, now);
}

namespace {
/// Index of the first entry of `fifo` due before its predecessor, or
/// npos when `fifo` is ordered by `key`.
template <typename T>
std::size_t FirstDisorder(const Ring<T>& fifo, Cycle T::* key) {
  for (std::size_t i = 1; i < fifo.size(); ++i) {
    if (fifo[i].*key < fifo[i - 1].*key) return i;
  }
  return std::string::npos;
}

std::string DisorderAt(const char* check, const char* what, std::size_t i,
                       Cycle before, Cycle at) {
  std::ostringstream os;
  os << check << ": " << what << " " << i << " is due at " << at
     << ", before its predecessor at " << before;
  return os.str();
}
}  // namespace

std::string CheckCrossbar(const Crossbar& icnt) {
  const auto& fifo = icnt.in_transit();
  const std::size_t i = FirstDisorder(fifo, &Crossbar::InFlight::deliver_at);
  if (i != std::string::npos) {
    return DisorderAt("icnt_order", "packet in transit", i,
                      fifo[i - 1].deliver_at, fifo[i].deliver_at);
  }
  // Tick visits only the busy ports.
  const std::vector<Ring<IcntPacket>>& ports = icnt.ports();
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (icnt.Busy(p) != !ports[p].empty()) {
      std::ostringstream os;
      os << "icnt_busy: port " << p << " holds " << ports[p].size()
         << " packets but is " << (icnt.Busy(p) ? "" : "not ")
         << "in the busy set";
      return os.str();
    }
  }
  // GpuSimulator skips the crossbar's tick until next_due() (0: the next
  // tick): work that falls due earlier would move late.
  const Cycle due = icnt.next_due();
  const auto late = [due](const std::string& what, Cycle at) {
    std::ostringstream os;
    os << "icnt_next_due: " << what << " at " << at
       << ", before the crossbar's next due cycle " << due;
    return os.str();
  };
  for (std::size_t p = 0; p < ports.size(); ++p) {
    const Cycle done = icnt.done_at()[p];  // kUnscheduled: the next tick
    if (!ports[p].empty() && done < due) {
      return late("port " + std::to_string(p) + "'s head finishes", done);
    }
  }
  if (!fifo.empty() && fifo.front().deliver_at < due) {
    return late("the oldest packet in transit lands", fifo.front().deliver_at);
  }
  if (icnt.waiting() > 0 && due > 0) {
    return late(std::to_string(icnt.waiting()) +
                    " packets wait for room from the next tick",
                0);
  }
  if (icnt.stalled() && due > 0) {
    return late("a fault stall counts down from the next tick", 0);
  }
  return "";
}

std::string CheckDram(const DramChannel& dram) {
  const auto& service = dram.in_service();
  const std::size_t i =
      FirstDisorder(service, &DramChannel::InService::done_at);
  if (i == std::string::npos) return "";
  return DisorderAt("dram_order", "request in service", i,
                    service[i - 1].done_at, service[i].done_at);
}

std::string CheckL2Mshr(const L2Cache& l2) {
  using Table = MshrTableOf<IcntPacket>;
  const Table& mshr = l2.mshr();
  const std::vector<Addr> fetching = mshr.Blocks();  // sorted
  const auto twice = std::adjacent_find(fetching.begin(), fetching.end());
  if (twice != fetching.end()) {
    return "l2_mshr: block " + std::to_string(*twice) + " has two entries";
  }
  // Walk every entry's waiter list, then the free list, marking each pool
  // node reached: a node reached twice is shared, one never reached leaked.
  const std::vector<Table::Node>& pool = mshr.pool();
  std::vector<bool> reached(pool.size(), false);
  const auto reach = [&](std::uint32_t node, const std::string& list) {
    if (node >= pool.size() || reached[node]) {
      return "l2_mshr: " + list + " reaches pool node " +
             std::to_string(node) + (node >= pool.size()
                                         ? ", past the pool's end"
                                         : ", already on a list");
    }
    reached[node] = true;
    return std::string();
  };
  for (const Table::Entry& entry : mshr.entries()) {
    const std::string list = "block " + std::to_string(entry.block);
    if (entry.count == 0 || entry.count > mshr.max_merged()) {
      return "l2_mshr: " + list + " holds " + std::to_string(entry.count) +
             " waiters, outside [1, " + std::to_string(mshr.max_merged()) +
             "]";
    }
    std::uint32_t node = entry.head;
    for (std::uint32_t k = 0; k < entry.count; ++k) {
      std::string violation = reach(node, list);
      if (!violation.empty()) return violation;
      node = pool[node].next;
    }
  }
  for (std::uint32_t node = mshr.free_head(); node != Table::kNil;
       node = pool[node].next) {
    std::string violation = reach(node, "the free list");
    if (!violation.empty()) return violation;
  }
  const auto lost = std::find(reached.begin(), reached.end(), false);
  if (lost != reached.end()) {
    return "l2_mshr: pool node " + std::to_string(lost - reached.begin()) +
           " is neither a live waiter nor free";
  }
  return "";
}

std::string CheckPartition(const MemoryPartition& partition, Cycle now_mem) {
  std::string violation = CheckDram(partition.dram());
  if (!violation.empty()) return violation;
  violation = CheckL2Mshr(partition.l2());
  if (!violation.empty()) return violation;
  const Ring<MemoryPartition::PendingReply>* const fifos[] = {
      &partition.l2_replies(), &partition.dram_replies()};
  for (const auto* fifo : fifos) {
    const std::size_t j =
        FirstDisorder(*fifo, &MemoryPartition::PendingReply::ready_at);
    if (j != std::string::npos) {
      return DisorderAt("reply_order", "reply", j, (*fifo)[j - 1].ready_at,
                        (*fifo)[j].ready_at);
    }
  }
  // GpuSimulator skips a partition's tick until next_due(): work that
  // falls due earlier would be served late.
  const Cycle due = partition.next_due();
  const auto late = [due](const char* what, Cycle at) {
    std::ostringstream os;
    os << "next_due: " << what << " falls due at " << at
       << ", before the partition's next due cycle " << due;
    return os.str();
  };
  if (partition.dram().NextEvent() < due) {
    return late("the DRAM channel's next event", partition.dram().NextEvent());
  }
  for (const auto* fifo : fifos) {
    if (!fifo->empty() && fifo->front().ready_at < due) {
      return late("a reply", fifo->front().ready_at);
    }
  }
  if (partition.Depths().retry > 0 && due > now_mem + 1) {
    return late("a request waiting to retry", now_mem + 1);
  }
  return "";
}

void InvariantChecker::Report(const std::string& where,
                              const std::string& violation) {
  if (violation.empty()) return;
  ++violations_;
  const std::size_t colon = violation.find(':');
  const std::string check = violation.substr(0, colon);
  const std::string details =
      colon == std::string::npos ? violation : violation.substr(colon + 2);
  last_violation_ = where + " " + violation;
  if (throw_) throw InvariantError(check, where, details);
}

void InvariantChecker::CheckAll(const GpuSimulator& gpu, Cycle now) {
  next_check_ = now + interval_;
  ++checks_run_;
  for (const SmCore& core : gpu.cores()) {
    const std::string where = "sm" + std::to_string(core.id());
    Report(where, CheckL1D(core.l1d()));
    Report(where, CheckSmCore(core, now));
  }
  Report("icnt", CheckCrossbar(gpu.icnt()));
  for (const MemoryPartition& p : gpu.partitions()) {
    Report("partition" + std::to_string(p.id()),
           CheckPartition(p, gpu.mem_cycles()));
  }
}

bool ChecksEnabledByEnv() {
  // Tri-state: an explicit DLPSIM_CHECK always wins (so =0 can force the
  // checker off even in DLPSIM_CHECKED builds); unset falls back to the
  // build-time default.
  if (env::IsSet("DLPSIM_CHECK")) return env::Flag("DLPSIM_CHECK");
#ifdef DLPSIM_CHECKED
  return true;
#else
  return false;
#endif
}

std::unique_ptr<InvariantChecker> MakeCheckerFromEnv() {
  if (!ChecksEnabledByEnv()) return nullptr;
  return std::make_unique<InvariantChecker>();
}

}  // namespace dlpsim::robust
