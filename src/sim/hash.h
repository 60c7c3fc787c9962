// FNV-1a 64-bit hashing and its fixed-width hex rendering: the one
// implementation behind the result-cache keys (serve/content_cache.h)
// and the trace content hashes (trace/hash.h). Both are persisted in
// file names and cache keys, so the output must stay stable across
// platforms and builds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dlpsim {

/// FNV-1a 64 offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;

/// FNV-1a 64 of `data`, continuing from `hash`. Folding a byte stream
/// chunk by chunk, each call passing the previous result, equals one call
/// over the concatenation.
inline std::uint64_t Fnv1a64(std::string_view data,
                             std::uint64_t hash = kFnv1a64Offset) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// `v` as 16 lowercase hex digits, most significant first.
inline std::string Hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace dlpsim
