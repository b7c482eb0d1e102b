// A FIFO queue in one circular buffer.  It allocates nothing until its
// first push, which takes one slot; a full ring doubles its capacity,
// and it never shrinks.  So a queue that is never used costs no heap,
// and one that never holds more than n elements costs the power of two
// at or above n slots.
//
// front() returns a reference into the buffer.  A push may move every
// element into a larger buffer, so do not hold that reference across a
// push to the same ring.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace eevfs {

template <typename T>
class FifoRing {
 public:
  FifoRing() = default;
  /// Leaves `other` empty.
  FifoRing(FifoRing&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  ~FifoRing() {
    while (!empty()) pop_front();
    release();
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    assert(!empty());
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + slot(size_), std::move(value));
    ++size_;
  }

  void pop_front() {
    assert(!empty());
    std::destroy_at(slots_ + head_);
    head_ = slot(1);
    --size_;
  }

 private:
  void release() {
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  /// Buffer index of the element `i` places past the front; the
  /// capacity is a power of two.
  std::size_t slot(std::size_t i) const { return (head_ + i) & (capacity_ - 1); }

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
    T* const slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* const old = slots_ + slot(i);
      std::construct_at(slots + i, std::move(*old));
      std::destroy_at(old);
    }
    release();
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace eevfs
