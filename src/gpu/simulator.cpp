#include "gpu/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace_sink.h"
#include "robust/fault.h"
#include "robust/invariants.h"
#include "robust/watchdog.h"

namespace dlpsim {

namespace {
// Member-init-list validation gate: cfg_ is the first member, so a bad
// configuration throws ConfigError before any tag array can assert on it.
const SimConfig& Validated(const SimConfig& cfg) {
  cfg.ValidateOrThrow();
  return cfg;
}
}  // namespace

GpuSimulator::GpuSimulator(const SimConfig& cfg, const Program* program,
                           std::uint32_t warps_per_sm)
    : cfg_(Validated(cfg)),
      icnt_(cfg.icnt, cfg.num_cores, cfg.num_partitions) {
  if (warps_per_sm == 0 || warps_per_sm > cfg.core.max_warps) {
    throw std::invalid_argument(
        "GpuSimulator: warps_per_sm must be in [1, core.max_warps = " +
        std::to_string(cfg.core.max_warps) + "] (got " +
        std::to_string(warps_per_sm) + ")");
  }
  cores_.reserve(cfg.num_cores);
  for (SmId id = 0; id < cfg.num_cores; ++id) {
    cores_.emplace_back(cfg, id, program, warps_per_sm);
    if (cores_.back().Finished()) ++finished_cores_;
  }
  partitions_.reserve(cfg.num_partitions);
  for (PartitionId id = 0; id < cfg.num_partitions; ++id) {
    partitions_.emplace_back(cfg, id);
  }
  core_domain_ = clocks_.AddDomain("core", cfg.core_mhz);
  icnt_domain_ = clocks_.AddDomain("icnt", cfg.icnt_mhz);
  mem_domain_ = clocks_.AddDomain("mem", cfg.mem_mhz);
  // Every component is due on its first cycle.
  core_due_.assign(cores_.size(), 0);
  part_due_.assign(partitions_.size(), 0);
  due_.resize(std::max(cores_.size(), partitions_.size()));
  domain_due_.resize(clocks_.num_domains());
  // Invariant checking is opt-in (DLPSIM_CHECK env / DLPSIM_CHECKED
  // build); when enabled every simulator self-checks without callers
  // having to know the robust/ layer exists.
  owned_checker_ = robust::MakeCheckerFromEnv();
  if (owned_checker_ != nullptr) checker_ = owned_checker_.get();
}

GpuSimulator::~GpuSimulator() = default;

void GpuSimulator::AttachObserver(AccessObserver* observer) {
  for (SmCore& core : cores_) core.l1d().SetObserver(observer);
}

void GpuSimulator::SetTraceSink(TraceSink* sink) {
  for (SmCore& core : cores_) core.l1d().SetTraceSink(sink, core.id());
}

void GpuSimulator::SetTimeline(TimelineSampler* sampler) {
  timeline_ = sampler;
}

void GpuSimulator::SetProfiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  for (SmCore& core : cores_) core.l1d().SetProfiler(profiler);
}

PolicySnapshot GpuSimulator::SnapshotPolicy() const {
  PolicySnapshot snap;
  std::uint32_t cores_with_pdpt = 0;
  for (const SmCore& core : cores_) {
    const L1DCache& l1d = core.l1d();
    if (const PdpTable* pdpt = l1d.policy().pdpt(); pdpt != nullptr) {
      snap.mean_pd += pdpt->MeanPd();
      snap.samples_taken += pdpt->samples_taken;
      ++cores_with_pdpt;
    }
    // One tag walk per L1D. The last bucket also takes any PL wider than
    // the 4-bit field, which only a test can plant.
    const TagArray& tda = l1d.tda();
    for (std::uint32_t set = 0; set < tda.geom().sets; ++set) {
      for (const CacheLine& line : tda.SetView(set)) {
        if (!IsOccupied(line.state)) continue;
        ++snap.pl_histogram[std::min<std::size_t>(
            line.protected_life, snap.pl_histogram.size() - 1)];
        if (line.protected_life > 0) ++snap.protected_lines;
      }
    }
  }
  if (cores_with_pdpt > 0) snap.mean_pd /= cores_with_pdpt;
  return snap;
}

void GpuSimulator::Step() {
  const Cycle next = clocks_.cycles(core_domain_) + 1;
  while (clocks_.cycles(core_domain_) < next) Advance(next);
  SyncCores();
}

void GpuSimulator::SyncCores() {
  const Cycle now = clocks_.cycles(core_domain_);
  for (SmCore& core : cores_) core.CatchUp(now);
}

Cycle GpuSimulator::NextHookCycle() const {
  Cycle at = kNever;
  if (faults_ != nullptr) at = std::min(at, faults_->next_due());
  if (timeline_ != nullptr) at = std::min(at, timeline_->next_due());
  if (progress_ != nullptr) at = std::min(at, progress_->next_due());
  if (checker_ != nullptr) at = std::min(at, checker_->next_due());
  if (watchdog_ != nullptr && !watchdog_->tripped()) {
    at = std::min(at, watchdog_->next_due());
  }
  return at;
}

void GpuSimulator::Advance(Cycle core_limit) {
  // The first cycle of each domain on which anything is due. Nothing
  // changes on the edges before the earliest of them, so the clocks step
  // past those without ticking anything.
  hook_due_ = NextHookCycle();
  domain_due_[core_domain_] = std::min({core_limit, hook_due_, core_due_min_});
  domain_due_[icnt_domain_] = icnt_.next_due();
  domain_due_[mem_domain_] = part_due_min_;
  ++counters_.steps;
  for (std::uint32_t domain : clocks_.TickUntil(domain_due_)) {
    const Cycle now = clocks_.cycles(domain);
    if (domain == core_domain_) {
      TickCores(now);
    } else if (domain == icnt_domain_) {
      // Ask the crossbar after the cores tick: a packet they injected
      // into an empty port makes it due on this edge.
      if (icnt_.NextDue(now) > now) continue;
      obs::ProfileSpan span(profiler_, obs::Phase::kIcntTick);
      icnt_.Tick(now);
      ++counters_.crossbar_ticks;
      for (std::uint32_t c : icnt_.landed_cores()) core_due_[c] = 0;
      for (std::uint32_t p : icnt_.landed_partitions()) part_due_[p] = 0;
      if (!icnt_.landed_cores().empty()) core_due_min_ = 0;
      if (!icnt_.landed_partitions().empty()) part_due_min_ = 0;
    } else if (domain == mem_domain_) {
      TickPartitions(now);
    }
  }
}

std::size_t GpuSimulator::DueSet(const std::vector<Cycle>& due, Cycle now,
                                 Cycle* rest_min) {
  std::size_t n = 0;
  Cycle min = kNever;
  for (std::uint32_t i = 0; i < due.size(); ++i) {
    const bool is_due = due[i] <= now;
    due_[n] = i;
    n += is_due ? 1 : 0;
    min = std::min(min, is_due ? kNever : due[i]);
  }
  *rest_min = min;
  return n;
}

void GpuSimulator::TickPartitions(Cycle now) {
  if (part_due_min_ > now) return;
  // A partition's tick touches only its own crossbar port and delivery
  // queue, so the due set taken up front is the one a live check gives.
  const std::size_t n = DueSet(part_due_, now, &part_due_min_);
  obs::ProfileSpan span(profiler_, obs::Phase::kMemTick);
  for (std::size_t k = 0; k < n; ++k) {
    MemoryPartition& p = partitions_[due_[k]];
    p.Tick(now, icnt_);
    part_due_[due_[k]] = p.NextDue(now + 1, icnt_);
    part_due_min_ = std::min(part_due_min_, part_due_[due_[k]]);
  }
  counters_.partition_ticks += n;
}

void GpuSimulator::TickCores(Cycle now) {
  // Injected faults land on the core clock edge, before the cores tick,
  // so "at cycle X" means "visible to cycle X's accesses". A fault lands
  // through the component it hits, so every due entry is taken afresh.
  if (hook_due_ <= now && faults_ != nullptr && faults_->HasDue(now)) {
    faults_->ApplyDue(*this, now);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      core_due_[i] = cores_[i].NextDue(now, icnt_);
    }
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      part_due_[i] =
          partitions_[i].NextDue(clocks_.cycles(mem_domain_), icnt_);
    }
    core_due_min_ = *std::min_element(core_due_.begin(), core_due_.end());
    part_due_min_ = *std::min_element(part_due_.begin(), part_due_.end());
  }
  // A core's tick touches only its own crossbar port and delivery queue,
  // so the due set taken up front is the one a live check gives. A core
  // not due would only repeat its greedy ALU issue; its next tick applies
  // the cycles it skipped, so every read of core state below calls
  // SyncCores first.
  if (core_due_min_ <= now) {
    const std::size_t n = DueSet(core_due_, now, &core_due_min_);
    obs::ProfileSpan span(profiler_, obs::Phase::kCoreTick);
    for (std::size_t k = 0; k < n; ++k) {
      SmCore& core = cores_[due_[k]];
      const bool finished = core.Finished();
      core.TickCore(now, icnt_);
      core_due_[due_[k]] = core.NextDue(now + 1, icnt_);
      core_due_min_ = std::min(core_due_min_, core_due_[due_[k]]);
      if (!finished && core.Finished()) ++finished_cores_;
    }
    counters_.core_ticks += n;
  }
  if (hook_due_ <= now) RunHooks(now);
}

void GpuSimulator::RunHooks(Cycle now) {
  if (timeline_ != nullptr && timeline_->Due(now)) {
    obs::ProfileSpan snap(profiler_, obs::Phase::kSnapshot);
    SyncCores();
    timeline_->Record(now, Collect(), SnapshotPolicy());
  }
  if (progress_ != nullptr && progress_->Due(now)) {
    SyncCores();
    obs::ProgressSample sample;
    sample.cycle = now;
    for (const SmCore& core : cores_) {
      sample.accesses += core.l1d().stats().accesses;
      for (const Warp& w : core.warps()) {
        ++sample.warps_total;
        if (w.Finished()) ++sample.warps_finished;
      }
    }
    progress_->Emit(sample);
  }
  if (checker_ != nullptr && checker_->Due(now)) {
    SyncCores();
    checker_->CheckAll(*this, now);
  }
  if (watchdog_ != nullptr && !watchdog_->tripped() &&
      watchdog_->Due(now) && !Done()) {
    SyncCores();
    if (watchdog_->Observe(ProgressCount(), now)) {
      robust::StallDiagnostic diag =
          robust::Diagnose(*this, now, watchdog_->last_progress_cycle(),
                           watchdog_->last_signature());
      if (progress_ != nullptr) {
        diag.last_heartbeat = progress_->last_line();
      }
      watchdog_->set_diagnostic(std::move(diag));
      run_error_ = robust::RunError::kWatchdogStall;
    }
  }
}

std::uint64_t GpuSimulator::ProgressCount() const {
  std::uint64_t n = 0;
  for (const SmCore& core : cores_) {
    n += core.committed_thread_insns + core.issued_warp_insns;
    const CacheStats& s = core.l1d().stats();
    // Completed cache work only: retried reservation failures increment
    // stats_.reservation_fails forever during a livelock and must NOT
    // mask the stall.
    n += s.accesses + s.fills + s.bypasses;
  }
  n += icnt_.packets_delivered;
  for (const MemoryPartition& p : partitions_) {
    n += p.requests_served + p.dram().reads + p.dram().writes;
  }
  return n;
}

bool GpuSimulator::Done() const {
  if (!icnt_.Idle()) return false;
  for (const MemoryPartition& p : partitions_) {
    if (!p.Idle()) return false;
  }
  for (const SmCore& core : cores_) {
    if (!core.Drained()) return false;
  }
  return true;
}

bool GpuSimulator::DrainCheck() {
  if (finished_cores_ < cores_.size()) return false;
  obs::ProfileSpan span(profiler_, obs::Phase::kDrainCheck);
  ++counters_.done_calls;
  return Done();
}

EngineCounters GpuSimulator::engine_counters() const {
  EngineCounters c = counters_;
  c.edges_skipped = clocks_.edges_skipped();
  c.port_visits = icnt_.port_visits;
  return c;
}

Metrics GpuSimulator::Run() {
  obs::ProfileSpan run_span(profiler_, obs::Phase::kRun);
  while (run_error_ == robust::RunError::kNone &&
         clocks_.cycles(core_domain_) < cfg_.max_core_cycles &&
         !DrainCheck()) {
    Advance(cfg_.max_core_cycles);
  }
  // A run cut short by max_core_cycles can stop in the middle of a skip.
  SyncCores();
  Metrics m = Collect();
  m.completed = Done() ? 1 : 0;
  if (m.completed != 0) {
    run_error_ = robust::RunError::kNone;
  } else if (run_error_ == robust::RunError::kNone) {
    // The hard budget expired with warps still in flight: a typed error
    // instead of a silent completed=0.
    run_error_ = robust::RunError::kCycleBudget;
  }
  // Close-of-run self check (cheap relative to a full run; catches drift
  // that never aligned with the periodic interval).
  if (checker_ != nullptr) {
    checker_->CheckAll(*this, clocks_.cycles(core_domain_));
  }
  // Close the timeline with a final sample so the per-interval deltas
  // sum exactly to the returned Metrics.
  if (timeline_ != nullptr) {
    timeline_->Record(clocks_.cycles(core_domain_), m, SnapshotPolicy());
  }
  PublishMetrics(obs::Registry::Global());
  return m;
}

void GpuSimulator::PublishMetrics(obs::Registry& registry) const {
  const auto add = [&registry](std::string_view scope, std::string_view name,
                               std::string_view help, std::uint64_t n) {
    registry.GetCounter(scope, name, help)->Add(n);
  };
  const Metrics m = Collect();
  add("cache", "accesses", "L1D accesses committed (hit, miss or bypass)",
      m.l1d_accesses);
  add("cache", "fills", "L1D lines filled by returning responses",
      m.l1d_fills);
  add("icnt", "packets_delivered", "packets landed in a delivery queue",
      icnt_.packets_delivered);
  add("mem", "dram_reads", "DRAM read commands issued", m.dram_reads);
  add("mem", "dram_writes", "DRAM write commands issued", m.dram_writes);
  std::uint64_t served = 0;
  for (const MemoryPartition& p : partitions_) served += p.requests_served;
  add("mem", "requests_served",
      "read replies injected back into the interconnect", served);

  static constexpr std::uint64_t kMshrBounds[] = {0, 1, 2, 4, 8, 16, 32};
  obs::Histogram* mshr_occupancy = registry.GetHistogram(
      "cache", "mshr_occupancy", kMshrBounds,
      "MSHR entries in use after each miss allocation");
  std::uint64_t pl_decrements = 0;
  std::uint64_t pd_recomputes = 0;
  std::uint64_t vta_hits = 0;
  bool protected_life = false;
  for (const SmCore& core : cores_) {
    const std::vector<std::uint64_t>& occupancy = core.l1d().mshr_occupancy();
    for (std::size_t n = 0; n < occupancy.size(); ++n) {
      mshr_occupancy->Observe(n, occupancy[n]);
    }
    const ProtectionPolicy& policy = core.l1d().policy();
    if (const PdpTable* pdpt = policy.pdpt(); pdpt != nullptr) {
      protected_life = true;
      pl_decrements += policy.pl_decrements;
      pd_recomputes += pdpt->samples_taken;
      vta_hits += policy.vta_hits;
    }
  }
  // Only Global-Protection and DLP keep these counters, so a run under an
  // LRU policy leaves them unregistered.
  if (protected_life) {
    add("cache", "pl_decrements",
        "protected-life decrements applied by set-query decay", pl_decrements);
    add("cache", "pd_recomputes",
        "PDPT end-of-window protection-distance recomputations",
        pd_recomputes);
    add("cache", "vta_hits", "victim-tag-array hits credited on load misses",
        vta_hits);
  }
}

Metrics GpuSimulator::Collect() const {
  Metrics m;
  m.core_cycles = clocks_.cycles(core_domain_);
  for (const SmCore& core : cores_) {
    m.committed_thread_insns += core.committed_thread_insns;
    m.committed_mem_insns += core.committed_mem_insns;
    m.issued_warp_insns += core.issued_warp_insns;
    m.ldst_stall_cycles += core.ldst().stall_cycles;
    m.load_block_cycles += core.load_block_cycles;
    m.load_block_events += core.load_block_events;
    const CacheStats& s = core.l1d().stats();
    m.l1d_accesses += s.accesses;
    m.l1d_loads += s.loads;
    m.l1d_stores += s.stores;
    m.l1d_load_hits += s.load_hits;
    m.l1d_load_misses += s.load_misses;
    m.l1d_mshr_merges += s.mshr_merges;
    m.l1d_misses_issued += s.misses_issued;
    m.l1d_bypasses += s.bypasses;
    m.l1d_reservation_fails += s.reservation_fails;
    m.l1d_evictions += s.evictions;
    m.l1d_writebacks += s.writebacks;
    m.l1d_fills += s.fills;
  }
  m.icnt_bytes_total = icnt_.total_bytes();
  m.icnt_bytes_l1d = icnt_.bytes_l1d;
  m.icnt_bytes_other = icnt_.bytes_other;
  for (const MemoryPartition& p : partitions_) {
    const CacheStats& s = p.l2().stats();
    m.l2_accesses += s.accesses;
    m.l2_load_hits += s.load_hits;
    m.l2_load_misses += s.load_misses;
    m.dram_reads += p.dram().reads;
    m.dram_writes += p.dram().writes;
    m.dram_row_hits += p.dram().row_hits;
    m.dram_row_misses += p.dram().row_misses;
  }
  return m;
}

}  // namespace dlpsim
