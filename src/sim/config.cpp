#include "sim/config.h"

#include <sstream>

namespace dlpsim {
namespace {

bool IsPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::string RenderIssues(const std::vector<ConfigIssue>& issues) {
  std::ostringstream os;
  os << "invalid SimConfig (" << issues.size()
     << (issues.size() == 1 ? " issue):" : " issues):");
  for (const ConfigIssue& i : issues) os << "\n  " << i.ToString();
  return os.str();
}

void Require(bool ok, const std::string& field, const std::string& message,
             std::vector<ConfigIssue>& issues) {
  if (!ok) issues.push_back(ConfigIssue{field, message});
}

}  // namespace

ConfigError::ConfigError(std::vector<ConfigIssue> issues)
    : std::invalid_argument(RenderIssues(issues)), issues_(std::move(issues)) {}

const char* ToString(PolicyKind k) {
  switch (k) {
    case PolicyKind::kBaseline:
      return "Baseline";
    case PolicyKind::kStallBypass:
      return "Stall-Bypass";
    case PolicyKind::kGlobalProtection:
      return "Global-Protection";
    case PolicyKind::kDlp:
      return "DLP";
  }
  return "?";
}

SimConfig SimConfig::Baseline16KB() { return SimConfig{}; }

SimConfig SimConfig::Cache32KB() {
  SimConfig c;
  c.l1d.geom.ways = 8;
  return c;
}

SimConfig SimConfig::Cache64KB() {
  SimConfig c;
  c.l1d.geom.ways = 16;
  return c;
}

SimConfig SimConfig::WithPolicy(PolicyKind k) {
  SimConfig c;
  c.l1d.policy = k;
  return c;
}

void CacheGeometry::AppendIssues(const std::string& prefix,
                                 std::vector<ConfigIssue>& issues) const {
  Require(sets > 0 && IsPowerOfTwo(sets), prefix + ".sets",
          "must be a nonzero power of two (got " + std::to_string(sets) + ")",
          issues);
  Require(ways > 0, prefix + ".ways", "must be nonzero", issues);
  Require(line_bytes >= 8 && IsPowerOfTwo(line_bytes), prefix + ".line_bytes",
          "must be a power of two >= 8 (got " + std::to_string(line_bytes) +
              ")",
          issues);
}

std::vector<ConfigIssue> L1DConfig::Validate() const {
  std::vector<ConfigIssue> issues;
  geom.AppendIssues("l1d.geom", issues);
  Require(mshr_entries > 0, "l1d.mshr_entries", "must be nonzero", issues);
  Require(mshr_max_merged > 0, "l1d.mshr_max_merged", "must be nonzero",
          issues);
  // A write-back miss with a dirty victim needs two miss-queue slots in the
  // same cycle (writeback + refill request); one slot can never drain it and
  // the warp livelocks on kReservationFail forever.
  const std::uint32_t min_mq =
      write_policy == WritePolicy::kWriteBackOnHit ? 2u : 1u;
  Require(miss_queue_entries >= min_mq, "l1d.miss_queue_entries",
          "must be >= " + std::to_string(min_mq) +
              " for this write policy (got " +
              std::to_string(miss_queue_entries) + ")",
          issues);
  Require(hit_latency > 0, "l1d.hit_latency", "must be nonzero", issues);
  // Protection tables: PD/PL live in pd_bits-wide fields that the policy
  // clamps to pd_max(); 0 bits means "no protection at all" and > 4 bits
  // overflows both the 4-bit PL field of a cache line and the 16 buckets
  // of PolicySnapshot::pl_histogram.
  Require(prot.pd_bits >= 1 && prot.pd_bits <= 4, "l1d.prot.pd_bits",
          "must be in [1, 4] (got " + std::to_string(prot.pd_bits) + ")",
          issues);
  Require(prot.pdpt_entries > 0, "l1d.prot.pdpt_entries", "must be nonzero",
          issues);
  Require(prot.insn_id_bits >= 1 && prot.insn_id_bits <= 16,
          "l1d.prot.insn_id_bits",
          "must be in [1, 16] (got " + std::to_string(prot.insn_id_bits) + ")",
          issues);
  if (prot.insn_id_bits >= 1 && prot.insn_id_bits <= 16) {
    Require((1u << prot.insn_id_bits) <= prot.pdpt_entries,
            "l1d.prot.insn_id_bits",
            "2^insn_id_bits (" + std::to_string(1u << prot.insn_id_bits) +
                ") must not exceed pdpt_entries (" +
                std::to_string(prot.pdpt_entries) + ")",
            issues);
  }
  Require(prot.sample_accesses > 0, "l1d.prot.sample_accesses",
          "must be nonzero", issues);
  Require(prot.sample_max_cycles > 0, "l1d.prot.sample_max_cycles",
          "must be nonzero", issues);
  Require(prot.tda_hit_bits >= 1 && prot.tda_hit_bits <= 32,
          "l1d.prot.tda_hit_bits", "must be in [1, 32]", issues);
  Require(prot.vta_hit_bits >= 1 && prot.vta_hit_bits <= 32,
          "l1d.prot.vta_hit_bits", "must be in [1, 32]", issues);
  return issues;
}

void L1DConfig::ValidateOrThrow() const {
  std::vector<ConfigIssue> issues = Validate();
  if (!issues.empty()) throw ConfigError(std::move(issues));
}

std::vector<ConfigIssue> SimConfig::Validate() const {
  std::vector<ConfigIssue> issues = l1d.Validate();
  l2.geom.AppendIssues("l2.geom", issues);
  Require(l2.mshr_entries > 0, "l2.mshr_entries", "must be nonzero", issues);
  Require(l2.mshr_max_merged > 0, "l2.mshr_max_merged", "must be nonzero",
          issues);
  Require(l2.miss_queue_entries > 0, "l2.miss_queue_entries",
          "must be nonzero", issues);
  Require(num_cores > 0, "num_cores", "must be nonzero", issues);
  Require(num_partitions > 0, "num_partitions", "must be nonzero", issues);
  Require(core_mhz > 0.0, "core_mhz", "must be positive", issues);
  Require(icnt_mhz > 0.0, "icnt_mhz", "must be positive", issues);
  Require(mem_mhz > 0.0, "mem_mhz", "must be positive", issues);
  Require(core.warp_size > 0, "core.warp_size", "must be nonzero", issues);
  Require(core.max_warps > 0, "core.max_warps", "must be nonzero", issues);
  Require(core.num_schedulers > 0, "core.num_schedulers", "must be nonzero",
          issues);
  Require(core.ldst_width > 0, "core.ldst_width", "must be nonzero", issues);
  Require(core.ldst_queue_entries > 0, "core.ldst_queue_entries",
          "must be nonzero", issues);
  Require(partition_chunk_bytes > 0, "partition_chunk_bytes",
          "must be nonzero", issues);
  Require(max_core_cycles > 0, "max_core_cycles", "must be nonzero", issues);
  Require(icnt.bytes_per_cycle_per_port > 0, "icnt.bytes_per_cycle_per_port",
          "must be nonzero", issues);
  Require(icnt.request_size > 0, "icnt.request_size", "must be nonzero",
          issues);
  Require(dram.banks > 0, "dram.banks", "must be nonzero", issues);
  Require(dram.row_bytes > 0 && IsPowerOfTwo(dram.row_bytes), "dram.row_bytes",
          "must be a nonzero power of two", issues);
  Require(dram.bus_bytes_per_cycle > 0, "dram.bus_bytes_per_cycle",
          "must be nonzero", issues);
  return issues;
}

void SimConfig::ValidateOrThrow() const {
  std::vector<ConfigIssue> issues = Validate();
  if (!issues.empty()) throw ConfigError(std::move(issues));
}

std::string CanonicalText(const SimConfig& c) {
  std::ostringstream os;
  const auto geom = [&os](const char* prefix, const CacheGeometry& g) {
    os << prefix << ".sets " << g.sets << '\n';
    os << prefix << ".ways " << g.ways << '\n';
    os << prefix << ".line_bytes " << g.line_bytes << '\n';
    os << prefix << ".index " << static_cast<int>(g.index) << '\n';
  };
  os << "config_format v1\n";
  os << "num_cores " << c.num_cores << '\n';
  os << "num_partitions " << c.num_partitions << '\n';
  os << "core.warp_size " << c.core.warp_size << '\n';
  os << "core.max_warps " << c.core.max_warps << '\n';
  os << "core.num_schedulers " << c.core.num_schedulers << '\n';
  os << "core.ldst_width " << c.core.ldst_width << '\n';
  os << "core.ldst_queue_entries " << c.core.ldst_queue_entries << '\n';
  os << "core.alu_latency " << c.core.alu_latency << '\n';
  os << "core.sfu_latency " << c.core.sfu_latency << '\n';
  geom("l1d.geom", c.l1d.geom);
  os << "l1d.write_policy " << static_cast<int>(c.l1d.write_policy) << '\n';
  os << "l1d.mshr_entries " << c.l1d.mshr_entries << '\n';
  os << "l1d.mshr_max_merged " << c.l1d.mshr_max_merged << '\n';
  os << "l1d.miss_queue_entries " << c.l1d.miss_queue_entries << '\n';
  os << "l1d.hit_latency " << c.l1d.hit_latency << '\n';
  os << "l1d.policy " << static_cast<int>(c.l1d.policy) << '\n';
  os << "l1d.prot.sample_accesses " << c.l1d.prot.sample_accesses << '\n';
  os << "l1d.prot.sample_max_cycles " << c.l1d.prot.sample_max_cycles << '\n';
  os << "l1d.prot.pdpt_entries " << c.l1d.prot.pdpt_entries << '\n';
  os << "l1d.prot.insn_id_bits " << c.l1d.prot.insn_id_bits << '\n';
  os << "l1d.prot.pd_bits " << c.l1d.prot.pd_bits << '\n';
  os << "l1d.prot.vta_ways " << c.l1d.prot.vta_ways << '\n';
  os << "l1d.prot.tda_hit_bits " << c.l1d.prot.tda_hit_bits << '\n';
  os << "l1d.prot.vta_hit_bits " << c.l1d.prot.vta_hit_bits << '\n';
  geom("l2.geom", c.l2.geom);
  os << "l2.mshr_entries " << c.l2.mshr_entries << '\n';
  os << "l2.mshr_max_merged " << c.l2.mshr_max_merged << '\n';
  os << "l2.miss_queue_entries " << c.l2.miss_queue_entries << '\n';
  os << "l2.latency " << c.l2.latency << '\n';
  os << "dram.banks " << c.dram.banks << '\n';
  os << "dram.row_bytes " << c.dram.row_bytes << '\n';
  os << "dram.t_row_hit " << c.dram.t_row_hit << '\n';
  os << "dram.t_row_miss " << c.dram.t_row_miss << '\n';
  os << "dram.t_rc " << c.dram.t_rc << '\n';
  os << "dram.bus_bytes_per_cycle " << c.dram.bus_bytes_per_cycle << '\n';
  os << "icnt.latency " << c.icnt.latency << '\n';
  os << "icnt.bytes_per_cycle_per_port " << c.icnt.bytes_per_cycle_per_port
     << '\n';
  os << "icnt.request_size " << c.icnt.request_size << '\n';
  os << "icnt.control_overhead " << c.icnt.control_overhead << '\n';
  os << "core_mhz " << c.core_mhz << '\n';
  os << "icnt_mhz " << c.icnt_mhz << '\n';
  os << "mem_mhz " << c.mem_mhz << '\n';
  os << "partition_chunk_bytes " << c.partition_chunk_bytes << '\n';
  os << "other_traffic_bytes " << c.other_traffic_bytes << '\n';
  os << "other_traffic_per_insns " << c.other_traffic_per_insns << '\n';
  os << "max_core_cycles " << c.max_core_cycles << '\n';
  return os.str();
}

}  // namespace dlpsim
