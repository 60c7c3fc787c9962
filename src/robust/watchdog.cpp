#include "robust/watchdog.h"

#include <sstream>

#include "cache/line.h"
#include "gpu/simulator.h"
#include "obs/json.h"

namespace dlpsim::robust {

bool Watchdog::Observe(std::uint64_t signature, Cycle now) {
  next_check_ = now + cfg_.check_interval;
  if (!have_sample_ || signature != last_signature_) {
    have_sample_ = true;
    last_signature_ = signature;
    last_progress_ = now;
    return false;
  }
  if (tripped_) return false;
  if (now - last_progress_ >= cfg_.stall_cycles) {
    tripped_ = true;
    return true;
  }
  return false;
}

StallDiagnostic Diagnose(const GpuSimulator& gpu, Cycle now,
                         Cycle last_progress, std::uint64_t signature) {
  StallDiagnostic d;
  d.trip_cycle = now;
  d.last_progress_cycle = last_progress;
  d.progress_signature = signature;

  for (const SmCore& core : gpu.cores()) {
    StallDiagnostic::SmState s;
    s.sm = core.id();
    const L1DCache& l1d = core.l1d();
    for (const Warp& w : core.warps()) {
      ++s.warps_total;
      if (w.Finished()) ++s.warps_finished;
      if (w.state(now) == Warp::State::kWaitMem) ++s.warps_wait_mem;
    }
    s.mshr_entries = l1d.mshr().size();
    s.mshr_capacity = l1d.mshr().capacity();
    s.outgoing = l1d.outgoing_size();
    s.reservation_fails = l1d.stats().reservation_fails;
    const TagArray& tda = l1d.tda();
    for (std::uint32_t set = 0; set < tda.geom().sets; ++set) {
      // No early exit: every way counts towards protected_lines.
      bool evictable = false;
      for (const CacheLine& line : tda.SetView(set)) {
        if (line.state == LineState::kInvalid) {
          evictable = true;
        } else if (line.protected_life > 0) {
          ++s.protected_lines;
        } else if (line.state != LineState::kReserved) {
          evictable = true;
        }
      }
      if (!evictable) ++s.fully_protected_sets;
    }
    d.total_mshr += s.mshr_entries;
    d.total_wait_mem += s.warps_wait_mem;
    d.total_fully_protected_sets += s.fully_protected_sets;
    d.sms.push_back(s);
  }

  const Crossbar::QueueDepths icnt = gpu.icnt().Depths();
  d.icnt_in_flight = icnt.core_inject + icnt.partition_inject +
                     icnt.in_flight + icnt.to_partition + icnt.to_core;
  for (const MemoryPartition& p : gpu.partitions()) {
    const MemoryPartition::QueueDepths m = p.Depths();
    d.mem_backlog +=
        m.retry + m.replies + m.dram_backlog + m.dram_queue + m.dram_in_service;
  }
  return d;
}

std::string StallDiagnostic::StalledResource() const {
  // Order matters: packets sitting in the fabric explain everything
  // downstream of them, so blame the outermost stuck stage first.
  if (icnt_in_flight > 0) return "interconnect";
  if (mem_backlog > 0) return "memory_partition";
  if (total_mshr > 0) return "mshr";
  if (total_fully_protected_sets > 0) return "protected_sets";
  return "unknown";
}

std::string StallDiagnostic::ToText() const {
  std::ostringstream os;
  os << "watchdog: no forward progress since core cycle "
     << last_progress_cycle << " (tripped at " << trip_cycle
     << "); stalled resource: " << StalledResource() << "\n";
  if (!last_heartbeat.empty()) {
    os << "  last heartbeat: " << last_heartbeat << "\n";
  }
  os << "  icnt packets in flight: " << icnt_in_flight
     << ", memory-partition backlog: " << mem_backlog
     << ", MSHR entries: " << total_mshr
     << ", warps waiting on memory: " << total_wait_mem
     << ", fully protected sets: " << total_fully_protected_sets << "\n";
  for (const SmState& s : sms) {
    // Only show SMs that are actually implicated.
    if (s.warps_finished == s.warps_total && s.mshr_entries == 0 &&
        s.outgoing == 0) {
      continue;
    }
    os << "  sm" << s.sm << ": warps " << s.warps_finished << "/"
       << s.warps_total << " finished, " << s.warps_wait_mem
       << " waiting on memory; mshr " << s.mshr_entries << "/"
       << s.mshr_capacity << ", miss queue " << s.outgoing
       << ", protected lines " << s.protected_lines << " ("
       << s.fully_protected_sets << " sets fully protected), "
       << s.reservation_fails << " reservation fails\n";
  }
  return os.str();
}

void StallDiagnostic::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("trip_cycle", trip_cycle);
  w.KV("last_progress_cycle", last_progress_cycle);
  w.KV("progress_signature", progress_signature);
  w.KV("last_heartbeat", last_heartbeat);
  w.KV("stalled_resource", StalledResource());
  w.KV("icnt_in_flight", icnt_in_flight);
  w.KV("mem_backlog", mem_backlog);
  w.KV("total_mshr", total_mshr);
  w.KV("total_wait_mem", total_wait_mem);
  w.KV("total_fully_protected_sets",
       std::uint64_t{total_fully_protected_sets});
  w.Key("sms");
  w.BeginArray();
  for (const SmState& s : sms) {
    w.BeginObject();
    w.KV("sm", s.sm);
    w.KV("warps_total", s.warps_total);
    w.KV("warps_finished", s.warps_finished);
    w.KV("warps_wait_mem", s.warps_wait_mem);
    w.KV("mshr_entries", s.mshr_entries);
    w.KV("mshr_capacity", s.mshr_capacity);
    w.KV("outgoing", s.outgoing);
    w.KV("fully_protected_sets", s.fully_protected_sets);
    w.KV("protected_lines", s.protected_lines);
    w.KV("reservation_fails", s.reservation_fails);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace dlpsim::robust
