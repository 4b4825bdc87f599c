// A double-ended FIFO over a power-of-two ring. std::deque allocates its block
// map and a first block on construction, so an idle queue costs heap; this
// one allocates nothing until its first push, grows by doubling, and keeps
// its ring when drained. Popped slots hold moved-from elements.
#ifndef SRC_SIM_RING_DEQUE_H_
#define SRC_SIM_RING_DEQUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace lauberhorn {

template <typename T>
class RingDeque {
 public:
  static constexpr size_t kMinCapacity = 4;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T& front() const { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[Wrap(head_ + size_)] = std::move(value);
    ++size_;
  }
  void push_front(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    head_ = Wrap(head_ + slots_.size() - 1);
    slots_[head_] = std::move(value);
    ++size_;
  }
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = Wrap(head_ + 1);
    --size_;
    return value;
  }
  T pop_back() {
    --size_;
    return std::move(slots_[Wrap(head_ + size_)]);
  }

  // Hands over every element, front first, in the ring's own storage: the
  // ring is rotated in place, so nothing is allocated or copied. The deque is
  // left without storage.
  std::vector<T> TakeAll() {
    std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                slots_.end());
    slots_.resize(size_);
    head_ = 0;
    size_ = 0;
    return std::exchange(slots_, {});
  }

 private:
  size_t Wrap(size_t index) const { return index & (slots_.size() - 1); }

  void Grow() {
    std::vector<T> wider(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      wider[i] = std::move(slots_[Wrap(head_ + i)]);
    }
    slots_ = std::move(wider);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity: zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_SIM_RING_DEQUE_H_
