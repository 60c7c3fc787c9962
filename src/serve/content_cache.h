// Content-addressed result cache: the one on-disk result store. The
// figure benches (bench::Run) and the experiment server load and store
// generated-workload cells here under the same key and payload
// (bench::CellKey, bench::ToPayload), so a server pointed at a bench's
// DLPSIM_CACHE_DIR serves that bench's cells. An entry's key is
//
//   key = fnv64(config canonical text) x fnv64(trace/workload ref)
//         x fnv64(binary version)
//
// rendered as three fixed-width hex components. Renaming a config preset
// keeps its cache entries; editing any simulation-relevant field -- or
// shipping a new simulator binary -- invalidates them, because the hash
// input changed. The three components stay visible in the filename so a
// human can tell *which* axis moved between two entries.
//
// Entries are written crash-safely: unique temp name, payload, a
// "#complete" footer appended last, atomic rename() into place. A
// truncated or concurrent entry is never served. Entry bytes are a pure
// function of the simulation result, so two servers (or one server at
// any worker count) produce byte-identical entries for the same key --
// pinned by tests/serve/.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "sim/hash.h"

namespace dlpsim::serve {

/// FNV-1a 64-bit hash (stable across platforms and builds).
using dlpsim::Fnv1a64;

/// The version stamp baked into this binary's cache keys. Bump
/// kBinaryVersion whenever simulation behaviour changes; the old
/// entries key away automatically.
inline constexpr const char* kBinaryVersion = "dlpsim-serve-1";
std::string_view BinaryVersion();

/// Builds the composite key from the three content components.
/// `config_text` should be sim::CanonicalText(cfg) (any stable full
/// serialization works); `trace_ref` names the workload deterministically
/// (for generated workloads: "app <abbr> scale <s>"; for trace-replay
/// requests: trace::TraceFileRef -- the trace's content hash over
/// canonical packed bytes, identical for text and DLPT packed copies of
/// the same record sequence).
std::string ContentKey(std::string_view config_text, std::string_view trace_ref,
                       std::string_view binary_version = BinaryVersion());

/// Deterministic trace reference for a generated workload:
/// "app <abbr> scale <s>", with `s` in ScaleText form.
std::string WorkloadTraceRef(std::string_view app, double scale);

class ContentCache {
 public:
  /// `dir` is created lazily on first Store. An empty dir disables the
  /// cache (Load always misses, Store is a no-op).
  explicit ContentCache(std::filesystem::path dir);

  bool enabled() const { return !dir_.empty(); }
  const std::filesystem::path& dir() const { return dir_; }

  std::filesystem::path PathFor(std::string_view key) const;

  /// Returns the stored payload, or nullopt on miss / truncated entry.
  std::optional<std::string> Load(std::string_view key) const;

  /// Best-effort atomic store; returns false when the entry could not be
  /// written (cache failures must never fail the request).
  bool Store(std::string_view key, std::string_view payload) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace dlpsim::serve
