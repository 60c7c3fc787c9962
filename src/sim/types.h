// Fundamental scalar types shared by every dlpsim module.
#pragma once

#include <cstdint>

namespace dlpsim {

/// Simulation cycle count within one clock domain.
using Cycle = std::uint64_t;

/// The cycle no clock reaches: a component whose next due cycle is kNever
/// has nothing to do until something else changes its state.
inline constexpr Cycle kNever = ~Cycle{0};

/// Byte address in the simulated global memory space.
using Addr = std::uint64_t;

/// Program counter of a (warp-level) instruction. PCs identify memory
/// instructions for the PDPT; they are hashed down to 7 bits when stored
/// in hardware tables (see core/pdpt.h).
using Pc = std::uint32_t;

/// Identifier types. Kept as plain integers for speed; the wiring code in
/// gpu/ is the only place that converts between them.
using SmId = std::uint32_t;
using WarpId = std::uint32_t;    // warp index within one SM
using PartitionId = std::uint32_t;

/// A sentinel for "no value" indices.
inline constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

/// Memory access kind as seen by the L1D cache.
enum class AccessType : std::uint8_t {
  kLoad,
  kStore,
};

/// Hash a PC down to `bits` bits. This mirrors the hardware's hashed
/// instruction-ID field: the PDPT has 128 entries, so 7 bits.
constexpr std::uint32_t HashPc(Pc pc, unsigned bits) {
  if (bits == 0) return 0;  // degenerate tables (Global-Protection)
  // Simple multiplicative hash (Knuth); deterministic across runs.
  std::uint32_t h = pc * 2654435761u;
  return h >> (32u - bits);
}

}  // namespace dlpsim
