// Access-pattern primitives for synthetic GPU kernels.
//
// The paper's results are driven by each memory instruction's per-set
// reuse-distance distribution (Figs. 3/7) and the kernel's memory access
// ratio (Fig. 6). These primitives let a benchmark descriptor dial in
// exactly those properties per PC:
//
//   Streaming    - every access touches a fresh line (compulsory misses
//                  only; HG's input scan, STR's text scan).
//   PrivateCyclic- each warp walks a private working set of `ws_lines`
//                  cyclically; the working-set size controls the reuse
//                  distance band (small -> RD 1-8, large -> RD > 64).
//   SharedTile   - groups of `share_degree` consecutive warps walk one
//                  tile together (inter-warp spatial reuse -> short RDs;
//                  GEMM/BP row sharing). share_degree == 0 means all
//                  warps share (broadcast tables: KM centroids, BT root).
//   Indirect     - hashed (optionally Zipf-skewed) accesses over a line
//                  universe (BFS frontiers, CFD neighbour lists).
//
// An address is produced per (global warp id, iteration, lane). Lanes are
// grouped `lanes_per_line` to a cache line, so one warp instruction
// touches 32 / lanes_per_line distinct lines (the coalescing degree).
// All patterns are pure functions of their inputs: simulations are
// bit-reproducible and patterns can be shared across warps and SMs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.h"
#include "sim/types.h"

namespace dlpsim {

inline constexpr std::uint32_t kLineBytes = 128;
inline constexpr std::uint32_t kWordBytes = 4;

class AccessPattern {
 public:
  /// Throws std::invalid_argument when `lanes_per_line` is 0.
  AccessPattern(Addr base, std::uint32_t lanes_per_line,
                std::uint32_t warp_size);
  virtual ~AccessPattern() = default;

  /// Byte address accessed by `lane` of global warp `warp` at `iter`.
  Addr AddressFor(std::uint64_t warp, std::uint64_t iter,
                  std::uint32_t lane) const {
    return GroupLine(warp, iter, lane / lanes_per_line_) +
           (lane % lanes_per_line_) * std::uint64_t{kWordBytes};
  }

  /// Byte address of the first lane of lane group `group`; the group's
  /// k-th lane accesses GroupLine(...) + k * kWordBytes.
  Addr GroupLine(std::uint64_t warp, std::uint64_t iter,
                 std::uint32_t group) const {
    return base_ + LineIndex(warp, iter, group) * kLineBytes;
  }

  /// Distinct lines touched by one warp instruction.
  std::uint32_t groups() const { return warp_size_ / lanes_per_line_; }
  std::uint32_t lanes_per_line() const { return lanes_per_line_; }
  Addr base() const { return base_; }

  virtual std::string Describe() const = 0;

 protected:
  /// Line index (relative to base_) for the group-th line of the access.
  virtual Addr LineIndex(std::uint64_t warp, std::uint64_t iter,
                         std::uint32_t group) const = 0;

 private:
  Addr base_;
  std::uint32_t lanes_per_line_;
  std::uint32_t warp_size_;
};

class StreamingPattern : public AccessPattern {
 public:
  /// `iters_hint`: upper bound of iterations, used to give every warp a
  /// disjoint address range.
  StreamingPattern(Addr base, std::uint32_t lanes_per_line,
                   std::uint32_t warp_size, std::uint64_t iters_hint);
  std::string Describe() const override;

 protected:
  Addr LineIndex(std::uint64_t warp, std::uint64_t iter,
                 std::uint32_t group) const override;

 private:
  std::uint64_t lines_per_warp_;
};

class PrivateCyclicPattern : public AccessPattern {
 public:
  PrivateCyclicPattern(Addr base, std::uint32_t lanes_per_line,
                       std::uint32_t warp_size, std::uint64_t ws_lines);
  std::string Describe() const override;
  std::uint64_t ws_lines() const { return ws_lines_; }

 protected:
  Addr LineIndex(std::uint64_t warp, std::uint64_t iter,
                 std::uint32_t group) const override;

 private:
  std::uint64_t ws_lines_;
};

class SharedTilePattern : public AccessPattern {
 public:
  /// share_degree == 0: all warps share one tile.
  SharedTilePattern(Addr base, std::uint32_t lanes_per_line,
                    std::uint32_t warp_size, std::uint64_t tile_lines,
                    std::uint32_t share_degree);
  std::string Describe() const override;

 protected:
  Addr LineIndex(std::uint64_t warp, std::uint64_t iter,
                 std::uint32_t group) const override;

 private:
  std::uint64_t tile_lines_;
  std::uint32_t share_degree_;
};

class IndirectPattern : public AccessPattern {
 public:
  IndirectPattern(Addr base, std::uint32_t lanes_per_line,
                  std::uint32_t warp_size, std::uint64_t universe_lines,
                  double zipf_s, std::uint64_t seed);
  std::string Describe() const override;

 protected:
  Addr LineIndex(std::uint64_t warp, std::uint64_t iter,
                 std::uint32_t group) const override;

 private:
  std::uint64_t universe_lines_;
  std::uint64_t seed_;
  ZipfSampler zipf_;
};

}  // namespace dlpsim
