#include "src/proto/id_window.h"

#include <algorithm>

namespace lauberhorn {

bool IdWindow::Contains(uint64_t id) const {
  if (words_.empty()) {
    return false;
  }
  if (InSpan(id)) {
    return (Word(id) & Bit(id)) != 0;
  }
  if ((id >> 6) < base_word_) {
    return std::find(ring_.begin(), ring_.end(), id) != ring_.end();
  }
  return false;
}

void IdWindow::Insert(uint64_t id) {
  if (words_.empty()) {
    words_.assign(kSpanWords, 0);
    base_word_ = (id >> 6) >= kSpanWords ? (id >> 6) - (kSpanWords - 1) : 0;
  }
  if (Contains(id)) {
    return;
  }
  if ((id >> 6) >= base_word_ + kSpanWords) {
    // Slide so `id` lands in the top word; clear the words that fall off.
    // Their ids may still be in the ring and are then found by scanning.
    const uint64_t base = (id >> 6) - (kSpanWords - 1);
    const uint64_t dropped = std::min<uint64_t>(base - base_word_, kSpanWords);
    for (uint64_t w = base_word_; w < base_word_ + dropped; ++w) {
      words_[w & (kSpanWords - 1)] = 0;
    }
    base_word_ = base;
  }
  if (InSpan(id)) {
    Word(id) |= Bit(id);
  }
  if (ring_.size() < kCapacity) {
    ring_.push_back(id);
    return;
  }
  const uint64_t evicted = ring_[oldest_];
  ring_[oldest_] = id;
  oldest_ = (oldest_ + 1) % kCapacity;
  if (InSpan(evicted)) {
    Word(evicted) &= ~Bit(evicted);
  }
}

}  // namespace lauberhorn
