// IdWindow remembers the last kCapacity distinct ids inserted and answers
// membership for exactly that set: a newer insert evicts the oldest inserted
// id first. It suits ids drawn from one counter, such as a client's request
// ids, and holds at most kMaxHeapBytes.
//
// The ids live in a ring in insertion order. Membership comes from a bitmap
// over the kSpanWords * 64 ids up to the newest one inserted; the bitmap
// slides forward as ids grow. An id below the bitmap that is still in the
// ring (a request that finished long after its successors) is found by
// scanning the ring, which only such stragglers pay.
#ifndef SRC_PROTO_ID_WINDOW_H_
#define SRC_PROTO_ID_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lauberhorn {

class IdWindow {
 public:
  static constexpr size_t kCapacity = 4096;
  static constexpr size_t kSpanWords = 512;  // the bitmap covers 32,768 ids
  // Heap bound: the full ring plus the bitmap.
  static constexpr size_t kMaxHeapBytes = (kCapacity + kSpanWords) * sizeof(uint64_t);

  bool Contains(uint64_t id) const;
  // Remembers `id`, forgetting the oldest id once kCapacity are held. An id
  // already in the window is left where it is.
  void Insert(uint64_t id);
  size_t size() const { return ring_.size(); }

 private:
  static uint64_t Bit(uint64_t id) { return uint64_t{1} << (id & 63); }
  // True when `id` falls inside the bitmap (wraps below base_word_).
  bool InSpan(uint64_t id) const { return (id >> 6) - base_word_ < kSpanWords; }
  uint64_t& Word(uint64_t id) { return words_[(id >> 6) & (kSpanWords - 1)]; }
  uint64_t Word(uint64_t id) const { return words_[(id >> 6) & (kSpanWords - 1)]; }

  std::vector<uint64_t> ring_;  // grows to kCapacity, then wraps at oldest_
  size_t oldest_ = 0;
  std::vector<uint64_t> words_;  // kSpanWords words once an id arrives
  uint64_t base_word_ = 0;       // id >> 6 of the bitmap's lowest word
};

}  // namespace lauberhorn

#endif  // SRC_PROTO_ID_WINDOW_H_
