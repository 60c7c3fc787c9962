// Saturating hardware counters (the PDPT's per-PC hit counters).
#pragma once

#include <cstdint>

namespace dlpsim {

/// Tiny saturating counter helper (hardware hit counters are saturating;
/// paper §4.3 gives their widths).
class SaturatingCounter {
 public:
  explicit SaturatingCounter(std::uint32_t bits = 8)
      : max_((bits >= 32) ? 0xffffffffu : ((1u << bits) - 1u)) {}

  void Increment() {
    if (value_ < max_) ++value_;
  }
  void Reset() { value_ = 0; }
  std::uint32_t value() const { return value_; }
  std::uint32_t max() const { return max_; }

 private:
  std::uint32_t max_;
  std::uint32_t value_ = 0;
};

}  // namespace dlpsim
