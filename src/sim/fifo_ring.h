// Growable FIFO ring buffer for move-only elements.
//
// A power-of-two array indexed modulo its capacity: push_back and pop_front
// touch one slot each and never allocate once the ring has reached its
// high-water mark (std::deque, by contrast, frees and re-allocates chunks as
// its head and tail walk through them). pop_front() resets its slot to T{},
// so whatever the element owned is released at once.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sim {

template <class T>
class FifoRing {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  T& operator[](size_t i) { return slots_[(head_ + i) & mask()]; }

  void push_back(T&& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace sim
