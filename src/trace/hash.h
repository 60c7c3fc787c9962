// Format-independent trace content hashing.
//
// A trace's content hash is FNV-1a 64 over its *canonical packed bytes*:
// the DLPT stream produced with empty metadata and the canonical block
// size (kCanonicalBlockRecords). Text and packed files holding the same
// record sequence therefore hash identically -- the serve layer keys its
// content-addressed result cache on this ref, so packing a trace never
// invalidates cached experiment results, and two clients submitting the
// same workload in different formats coalesce onto one cache entry.
//
// Hashing is streaming (the canonical bytes are folded into the hash as
// they are produced, never materialized), so it is O(block) memory for
// traces of any length.
#pragma once

#include <cstdint>
#include <string>

#include "trace/error.h"
#include "trace/source.h"

namespace dlpsim::trace {

/// Drains `src` and returns the content hash of its record sequence in
/// *hash. Returns false with *error on a source error.
bool TraceContentHash(TraceSource& src, std::uint64_t* hash,
                      TraceParseError* error);

/// Content hash of a trace file in either format. Returns false with
/// *error when the file cannot be opened or parsed.
bool TraceFileHash(const std::string& path, std::uint64_t* hash,
                   TraceParseError* error);

/// Serve-layer trace reference for a trace file: "trace-<16 hex digits>".
/// Empty string (with *error filled) on failure.
std::string TraceFileRef(const std::string& path, TraceParseError* error);

}  // namespace dlpsim::trace
