#include "sim/env.h"

#include <cstdlib>

#include "sim/parse.h"

namespace dlpsim::env {

const char* Raw(const char* name) { return std::getenv(name); }

bool IsSet(const char* name) { return Raw(name) != nullptr; }

bool Flag(const char* name) {
  const char* v = Raw(name);
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string Str(const char* name, const char* fallback) {
  const char* v = Raw(name);
  return v != nullptr ? v : fallback;
}

std::uint64_t U64(const char* name, std::uint64_t fallback) {
  std::uint64_t parsed = 0;
  if (const char* v = Raw(name); v != nullptr && ParseU64(v, &parsed) &&
                                 parsed > 0) {
    return parsed;
  }
  return fallback;
}

}  // namespace dlpsim::env
