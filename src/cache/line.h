// Cache line metadata shared by the TDA (L1D), the VTA and the L2 slices.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace dlpsim {

/// Line life cycle. RESERVED marks allocate-on-miss lines whose fill is
/// still in flight (GPGPU-Sim semantics); reserved lines can never be
/// chosen as victims, which is one of the stall sources DLP relieves.
enum class LineState : std::uint8_t {
  kInvalid,
  kReserved,
  kValid,
  kModified,
};

inline bool IsOccupied(LineState s) { return s != LineState::kInvalid; }
inline bool IsFilled(LineState s) {
  return s == LineState::kValid || s == LineState::kModified;
}

struct CacheLine {
  Addr block = 0;            // line-aligned address / line_bytes
  LineState state = LineState::kInvalid;
  std::uint64_t last_use = 0;  // LRU timestamp (monotone access counter)

  // --- DLP extension fields (paper §4.1.1) ---
  // Hashed PC (7 bits) of the instruction that brought the line in or hit
  // it last; hits are attributed to this instruction.
  std::uint32_t insn_id = 0;
  // Protected Life: decremented on every query of the owning set; a line
  // with pl > 0 cannot be replaced. 4-bit field, clamped by the policy.
  std::uint32_t protected_life = 0;
  // Full PC kept for analysis/debug output only (not modelled hardware).
  Pc src_pc = 0;
};

}  // namespace dlpsim
