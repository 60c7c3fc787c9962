// Miss Status Holding Register table with request merging.
//
// One entry tracks one in-flight line; later misses to the same line merge
// into the entry (up to mshr_max_merged targets) instead of generating new
// interconnect traffic. A full table or an unmergeable entry is one of the
// reservation-failure stall reasons in the L1D pipeline.
//
// The table is flat: at most `entries` live entries in one array, found by
// a scan of their blocks (32 in the L1D, 64 in an L2 slice). Each entry's
// targets are a list of nodes in merge order; the nodes live in one pool,
// and a retired entry's nodes go to a free list for the next miss. The
// pool grows only when a merge finds the free list empty, so once it holds
// the most targets ever live at once, a miss allocates nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace dlpsim {

/// Opaque handle the requester attaches to a miss; returned on fill so the
/// SM can wake the right warp/lane group.
using MshrToken = std::uint64_t;

/// An MSHR table whose merged targets are `Target`s: MshrToken in the L1D,
/// the waiting request packet in the L2.
template <typename Target>
class MshrTableOf {
 public:
  MshrTableOf(std::uint32_t entries, std::uint32_t max_merged)
      : capacity_(entries), max_merged_(max_merged) {}

  bool Full() const { return entries_.size() >= capacity_; }
  bool HasEntry(Addr block) const { return Find(block) != kNil; }

  /// True iff `block` has an entry with room for another merged target.
  bool CanMerge(Addr block) const {
    const std::uint32_t e = Find(block);
    return e != kNil && entries_[e].count < max_merged_;
  }

  /// True iff a brand-new entry can be allocated.
  bool CanAllocate() const { return !Full(); }

  /// Allocates a new entry for `block`. Pre: !HasEntry(block), !Full().
  void Allocate(Addr block, const Target& target) {
    assert(!Full() && !HasEntry(block));
    const std::uint32_t node = NewNode(target);
    entries_.push_back(Entry{block, node, node, 1});
  }

  /// Merges into the existing entry. Pre: CanMerge(block).
  void Merge(Addr block, const Target& target) {
    const std::uint32_t e = Find(block);
    assert(e != kNil && entries_[e].count < max_merged_);
    const std::uint32_t node = NewNode(target);
    Entry& entry = entries_[e];
    pool_[entry.tail].next = node;
    entry.tail = node;
    ++entry.count;
  }

  /// Retires the entry for `block` on fill: appends its targets to `out`
  /// in merge order and frees its nodes. No-op when `block` has no entry.
  void Retire(Addr block, std::vector<Target>& out) {
    const std::uint32_t e = Find(block);
    if (e == kNil) return;
    const Entry entry = entries_[e];
    std::uint32_t node = entry.head;
    for (std::uint32_t k = 0; k < entry.count; ++k) {
      Node& n = pool_[node];
      out.push_back(n.target);
      const std::uint32_t next = n.next;
      n.next = free_;
      free_ = node;
      node = next;
    }
    // Entries are unordered: the last one takes the retired slot.
    entries_[e] = entries_.back();
    entries_.pop_back();
  }

  std::size_t size() const { return entries_.size(); }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t max_merged() const { return max_merged_; }

  /// Number of targets currently merged for `block` (0 if absent).
  std::size_t TargetCount(Addr block) const {
    const std::uint32_t e = Find(block);
    return e == kNil ? 0 : entries_[e].count;
  }

  /// All blocks with in-flight entries, in ascending address order. Used
  /// by the invariant checker (robust/) to cross-check the MSHR against
  /// the tag array's RESERVED lines; sorted so any consumer that prints
  /// or compares the list stays deterministic.
  std::vector<Addr> Blocks() const {
    std::vector<Addr> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) out.push_back(entry.block);
    std::sort(out.begin(), out.end());
    return out;
  }

  // --- layout, for the invariant checker (robust/) ---
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Entry {
    Addr block = 0;
    std::uint32_t head = kNil;  // pool index of the first target merged
    std::uint32_t tail = kNil;  // ... and of the last
    std::uint32_t count = 0;    // targets in the list
  };
  struct Node {
    Target target{};
    std::uint32_t next = kNil;  // the next target, or the next free node
  };
  /// Live entries, unordered.
  const std::vector<Entry>& entries() const { return entries_; }
  /// Every target node ever allocated: in a live entry's list or free.
  const std::vector<Node>& pool() const { return pool_; }
  /// Head of the free list threaded through pool() (kNil when empty).
  std::uint32_t free_head() const { return free_; }
  /// White-box tests only: plants the corruption the checker must catch.
  std::vector<Entry>& mutable_entries() { return entries_; }

 private:
  std::uint32_t Find(Addr block) const {
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
      if (entries_[e].block == block) return e;
    }
    return kNil;
  }

  std::uint32_t NewNode(const Target& target) {
    if (free_ == kNil) {
      pool_.push_back(Node{target, kNil});
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t node = free_;
    free_ = pool_[node].next;
    pool_[node] = Node{target, kNil};
    return node;
  }

  std::uint32_t capacity_;
  std::uint32_t max_merged_;
  std::vector<Entry> entries_;
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;
};

/// The L1D's MSHR: targets are the requesters' wake tokens.
using MshrTable = MshrTableOf<MshrToken>;

}  // namespace dlpsim
