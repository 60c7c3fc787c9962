// A FIFO ring buffer that keeps its storage: the type of every engine
// queue (crossbar, partition, DRAM, L1D miss queue, trace replay).
//
// Push, pop and indexing are O(1). Storage starts empty and doubles when a
// push finds it full; pops and clear() never shrink it, so a queue that has
// reached its working depth allocates nothing more. std::deque frees and
// allocates its blocks again as a queue drains and refills, which costs
// heap traffic per packet.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace dlpsim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots held: grows with use, never shrinks.
  std::size_t capacity() const { return slots_.size(); }

  /// Element `i` counted from the front. Pre: i < size().
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }
  /// Pre: !empty().
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }
  /// Removes element `i`, keeping the order of the others. Pre: i < size().
  void erase(std::size_t i) {
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    std::vector<T> slots(slots_.empty() ? kMinSlots : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) slots[i] = std::move((*this)[i]);
    slots_.swap(slots);
    head_ = 0;
  }

  static constexpr std::size_t kMinSlots = 4;
  std::vector<T> slots_;  // a power-of-two count, so a mask wraps an index
  std::size_t head_ = 0;  // slot of the front element
  std::size_t size_ = 0;
};

}  // namespace dlpsim
