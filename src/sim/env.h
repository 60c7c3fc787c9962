// The configuration layer for DLPSIM_* environment knobs.
//
// Every environment read in the simulator, the bench harness and the
// tools goes through these helpers -- this file's .cpp is the project's
// only std::getenv call site. That centralization is enforced by
// dlp_lint rule S1, which also cross-checks that every knob name passed
// to these functions at a call site is documented in README.md and
// EXPERIMENTS.md: a knob that cannot be discovered without reading the
// source silently forks experiment behaviour between machines.
//
// Presence and truthiness are distinct (IsSet vs. Flag), and a number
// that is not positive falls back to the call site's default. Numbers
// parse strictly (sim/parse.h), so "-1" or "12abc" falls back rather
// than wrapping or truncating.
#pragma once

#include <cstdint>
#include <string>

namespace dlpsim::env {

/// Raw value of `name`, or nullptr when unset. Prefer the typed helpers;
/// Raw() exists for tri-state knobs (set-empty vs. unset vs. value) like
/// DLPSIM_CHECK and for spec strings parsed elsewhere (DLPSIM_FAULTS).
const char* Raw(const char* name);

/// True when the variable is set at all, even to "" or "0". Presence
/// semantics (e.g. DLPSIM_NOCACHE disables the cache however it is set).
bool IsSet(const char* name);

/// True when set to anything except "" and "0" (truthiness semantics,
/// e.g. DLPSIM_TRACE).
bool Flag(const char* name);

/// String value, or `fallback` when unset.
std::string Str(const char* name, const char* fallback);

/// Positive decimal integer value; unset, unparsable (a sign, whitespace,
/// a trailing byte, overflow) or zero returns `fallback`.
std::uint64_t U64(const char* name, std::uint64_t fallback);

}  // namespace dlpsim::env
