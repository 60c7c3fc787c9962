// Strict parsing of unsigned numbers that arrive from outside the
// program: command-line flags, DLPSIM_* environment knobs, request and
// fault-plan specs, reproducer metadata.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>

namespace dlpsim {

/// Parses `s` as a decimal std::uint64_t. Accepts digits only: a sign,
/// whitespace, a trailing byte, an empty string or a value above
/// UINT64_MAX returns false and leaves `*out` untouched.
inline bool ParseU64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

/// ParseU64 into a narrower integer type: also false when the value
/// exceeds T's maximum.
template <typename T>
bool ParseUnsigned(std::string_view s, T* out) {
  std::uint64_t v = 0;
  if (!ParseU64(s, &v) ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Parses all of `s` as a finite number above zero, in decimal or
/// scientific notation. A sign, whitespace, a trailing byte, "inf", "nan"
/// or a value <= 0 returns false and leaves `*out` untouched.
inline bool ParsePositiveDouble(std::string_view s, double* out) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v <= 0.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace dlpsim
