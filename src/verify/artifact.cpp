#include "verify/artifact.h"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "sim/parse.h"
#include "trace/source.h"
#include "trace/writer.h"

namespace dlpsim::verify {

namespace {

const char* PolicyToken(PolicyKind k) {
  switch (k) {
    case PolicyKind::kBaseline: return "baseline";
    case PolicyKind::kStallBypass: return "stall-bypass";
    case PolicyKind::kGlobalProtection: return "global-protection";
    case PolicyKind::kDlp: return "dlp";
  }
  return "baseline";
}

bool ParsePolicyToken(const std::string& s, PolicyKind* out) {
  if (s == "baseline") *out = PolicyKind::kBaseline;
  else if (s == "stall-bypass") *out = PolicyKind::kStallBypass;
  else if (s == "global-protection") *out = PolicyKind::kGlobalProtection;
  else if (s == "dlp") *out = PolicyKind::kDlp;
  else return false;
  return true;
}

}  // namespace

std::string ArtifactMetaText(const Artifact& a) {
  const L1DConfig& c = a.config;
  std::ostringstream out;
  out << "# dlpsim differential-fuzz reproducer\n";
  out << "#@ policy " << PolicyToken(c.policy) << "\n";
  out << "#@ sets " << c.geom.sets << "\n";
  out << "#@ ways " << c.geom.ways << "\n";
  out << "#@ line_bytes " << c.geom.line_bytes << "\n";
  out << "#@ index " << (c.geom.index == IndexFunction::kHash ? "hash" : "linear")
      << "\n";
  out << "#@ write_policy "
      << (c.write_policy == WritePolicy::kWriteBackOnHit ? "write-back"
                                                         : "write-evict")
      << "\n";
  out << "#@ mshr_entries " << c.mshr_entries << "\n";
  out << "#@ mshr_max_merged " << c.mshr_max_merged << "\n";
  out << "#@ miss_queue_entries " << c.miss_queue_entries << "\n";
  out << "#@ sample_accesses " << c.prot.sample_accesses << "\n";
  out << "#@ sample_max_cycles " << c.prot.sample_max_cycles << "\n";
  out << "#@ pdpt_entries " << c.prot.pdpt_entries << "\n";
  out << "#@ insn_id_bits " << c.prot.insn_id_bits << "\n";
  out << "#@ pd_bits " << c.prot.pd_bits << "\n";
  out << "#@ vta_ways " << c.prot.vta_ways << "\n";
  out << "#@ fill_latency " << a.params.fill_latency << "\n";
  out << "#@ drain_rate " << a.params.drain_rate << "\n";
  out << "#@ state_check_interval " << a.params.state_check_interval << "\n";
  out << "#@ seed " << a.seed << "\n";
  if (!a.divergence.empty()) {
    // Keep the message on one comment line so the file stays parseable.
    std::string msg = a.divergence;
    for (char& ch : msg) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    out << "#@ divergence " << msg << "\n";
  }
  return out.str();
}

bool ParseArtifactMeta(const std::string& meta_text, Artifact* out,
                       std::string* error) {
  std::map<std::string, std::string> meta;
  std::istringstream in(meta_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#@ ", 0) != 0) continue;
    std::istringstream ls(line.substr(3));
    std::string key;
    if (ls >> key) {
      std::string value;
      std::getline(ls, value);
      const auto first = value.find_first_not_of(" \t");
      meta[key] = first == std::string::npos ? "" : value.substr(first);
    }
  }

  L1DConfig& c = out->config;
  const auto u32_field = [&](const char* key, std::uint32_t* dst) {
    const auto it = meta.find(key);
    if (it == meta.end()) return true;
    if (!ParseUnsigned(it->second, dst)) {
      if (error != nullptr) {
        *error = std::string("bad metadata value for '") + key + "': '" +
                 it->second + "'";
      }
      return false;
    }
    return true;
  };

  if (const auto it = meta.find("policy"); it != meta.end()) {
    if (!ParsePolicyToken(it->second, &c.policy)) {
      if (error != nullptr) *error = "unknown policy '" + it->second + "'";
      return false;
    }
  }
  if (const auto it = meta.find("index"); it != meta.end()) {
    if (it->second == "hash") c.geom.index = IndexFunction::kHash;
    else if (it->second == "linear") c.geom.index = IndexFunction::kLinear;
    else {
      if (error != nullptr) *error = "unknown index function '" + it->second + "'";
      return false;
    }
  }
  if (const auto it = meta.find("write_policy"); it != meta.end()) {
    if (it->second == "write-back") c.write_policy = WritePolicy::kWriteBackOnHit;
    else if (it->second == "write-evict") c.write_policy = WritePolicy::kWriteEvict;
    else {
      if (error != nullptr) *error = "unknown write policy '" + it->second + "'";
      return false;
    }
  }
  if (!u32_field("sets", &c.geom.sets) || !u32_field("ways", &c.geom.ways) ||
      !u32_field("line_bytes", &c.geom.line_bytes) ||
      !u32_field("mshr_entries", &c.mshr_entries) ||
      !u32_field("mshr_max_merged", &c.mshr_max_merged) ||
      !u32_field("miss_queue_entries", &c.miss_queue_entries) ||
      !u32_field("sample_accesses", &c.prot.sample_accesses) ||
      !u32_field("pdpt_entries", &c.prot.pdpt_entries) ||
      !u32_field("insn_id_bits", &c.prot.insn_id_bits) ||
      !u32_field("pd_bits", &c.prot.pd_bits) ||
      !u32_field("vta_ways", &c.prot.vta_ways) ||
      !u32_field("fill_latency", &out->params.fill_latency) ||
      !u32_field("drain_rate", &out->params.drain_rate) ||
      !u32_field("state_check_interval", &out->params.state_check_interval)) {
    return false;
  }
  if (const auto it = meta.find("sample_max_cycles"); it != meta.end()) {
    if (!ParseU64(it->second, &c.prot.sample_max_cycles)) {
      if (error != nullptr) {
        *error = "bad metadata value for 'sample_max_cycles': '" + it->second + "'";
      }
      return false;
    }
  }
  if (const auto it = meta.find("seed"); it != meta.end()) {
    if (!ParseU64(it->second, &out->seed)) {
      if (error != nullptr) *error = "bad metadata value for 'seed': '" + it->second + "'";
      return false;
    }
  }
  if (const auto it = meta.find("divergence"); it != meta.end()) {
    out->divergence = it->second;
  }

  const std::vector<ConfigIssue> issues = c.Validate();
  if (!issues.empty()) {
    if (error != nullptr) {
      *error = "artifact config invalid: " + issues.front().ToString();
    }
    return false;
  }
  if (out->params.drain_rate == 0) {
    if (error != nullptr) *error = "artifact config invalid: drain_rate must be >= 1";
    return false;
  }
  return true;
}

void WriteArtifact(std::ostream& out, const Artifact& a) {
  out << ArtifactMetaText(a);
  trace::WriteTextTrace(out, a.trace);
}

bool WriteArtifactFile(const std::string& path, const Artifact& a,
                       std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  WriteArtifact(out, a);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write error on '" + path + "'";
    return false;
  }
  return true;
}

bool WriteArtifactPacked(std::ostream& out, const Artifact& a,
                         std::string* error) {
  trace::PackedTraceWriter w(out, ArtifactMetaText(a));
  for (const TraceAccess& t : a.trace) w.Append(t);
  if (!w.Finish()) {
    if (error != nullptr) *error = w.error().ToString();
    return false;
  }
  return true;
}

bool WriteArtifactPackedFile(const std::string& path, const Artifact& a,
                             std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  return WriteArtifactPacked(out, a, error);
}

bool ReadArtifact(std::istream& in, Artifact* out, std::string* error) {
  *out = Artifact{};
  std::ostringstream meta;
  std::ostringstream body;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#@ ", 0) == 0) {
      meta << line << "\n";
      continue;
    }
    body << line << "\n";
  }
  if (in.bad()) {
    if (error != nullptr) *error = "stream read error";
    return false;
  }
  if (!ParseArtifactMeta(meta.str(), out, error)) return false;

  std::istringstream body_in(body.str());
  TraceParseError parse_error;
  if (!ParseTraceStrict(body_in, &out->trace, &parse_error)) {
    if (error != nullptr) *error = "bad trace line: " + parse_error.ToString();
    return false;
  }
  return true;
}

bool ReadArtifactFile(const std::string& path, Artifact* out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  return ReadArtifact(in, out, error);
}

bool ReadArtifactAuto(const std::string& path, Artifact* out,
                      std::string* error) {
  TraceParseError open_error;
  auto src = trace::OpenTraceFile(path, &open_error);
  if (src == nullptr) {
    if (error != nullptr) *error = open_error.ToString();
    return false;
  }
  auto* packed = dynamic_cast<trace::PackedTraceSource*>(src.get());
  if (packed == nullptr) {
    return ReadArtifactFile(path, out, error);
  }
  *out = Artifact{};
  // Forces the header read; a header error surfaces on the first Next().
  const std::string meta = packed->meta();
  TraceParseError parse_error;
  if (!trace::ReadAllRecords(*packed, &out->trace, &parse_error)) {
    if (error != nullptr) *error = parse_error.ToString();
    return false;
  }
  if (!ParseArtifactMeta(meta, out, error)) return false;
  return true;
}

}  // namespace dlpsim::verify
