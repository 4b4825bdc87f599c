// Wire arrival time of each request id a server NIC has seen and not yet
// answered: the start of every end-system latency sample.
//
// One flat array of (request id, arrival) slots, open addressing with
// linear probing and backward-shift deletion, so recording an arrival and
// taking it back allocate nothing once the array has grown to the number of
// unanswered ids. Fibonacci hashing spreads the sequential ids clients
// issue over the array's high-order slot bits.
#ifndef SRC_CORE_ARRIVAL_TABLE_H_
#define SRC_CORE_ARRIVAL_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace lauberhorn {

class ArrivalTable {
 public:
  // Records that `request_id` arrived at `at` (>= 0). A later arrival of the
  // same id replaces the earlier one.
  void Set(uint64_t request_id, SimTime at) {
    assert(at != kEmpty && "arrival times are not negative");
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      Grow();
    }
    size_t i = Home(request_id);
    while (slots_[i].at != kEmpty && slots_[i].id != request_id) {
      i = (i + 1) & mask_;
    }
    size_ += slots_[i].at == kEmpty;
    slots_[i] = Slot{request_id, at};
  }

  // Removes `request_id` and returns its arrival; nullopt if it is absent.
  std::optional<SimTime> Take(uint64_t request_id) {
    if (size_ == 0) {
      return std::nullopt;
    }
    for (size_t i = Home(request_id); slots_[i].at != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].id == request_id) {
        const SimTime at = slots_[i].at;
        Erase(i);
        return at;
      }
    }
    return std::nullopt;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t id = 0;
    SimTime at = -1;
  };
  static constexpr SimTime kEmpty = -1;
  static constexpr size_t kMinSlots = 16;

  size_t Home(uint64_t request_id) const {
    return static_cast<size_t>((request_id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? kMinSlots : 2 * slots_.size()));
    mask_ = slots_.size() - 1;
    shift_ = 64 - __builtin_ctzll(slots_.size());
    for (const Slot& slot : old) {
      if (slot.at != kEmpty) {
        size_t i = Home(slot.id);
        while (slots_[i].at != kEmpty) {
          i = (i + 1) & mask_;
        }
        slots_[i] = slot;
      }
    }
  }

  // Frees slot `hole`, shifting later entries of its probe run back into the
  // gap so that no lookup needs a tombstone.
  void Erase(size_t hole) {
    for (size_t i = (hole + 1) & mask_; slots_[i].at != kEmpty; i = (i + 1) & mask_) {
      // The entry at i may fill the hole unless its home lies cyclically in
      // (hole, i]: then the hole is before its home and lookups would miss it.
      if (((i - Home(slots_[i].id)) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].at = kEmpty;
    --size_;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace lauberhorn

#endif  // SRC_CORE_ARRIVAL_TABLE_H_
