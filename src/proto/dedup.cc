#include "src/proto/dedup.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace lauberhorn {

size_t RpcDedupCache::Hash(const Key& key) {
  // splitmix64's finalizer over the halves, so the low bits that pick the
  // home slot depend on every key bit.
  uint64_t x = key.flow ^ (key.request_id * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

size_t RpcDedupCache::Find(const Key& key) const {
  if (entries_ == 0) {
    return kNoSlot;
  }
  const size_t mask = keys_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (states_[i] == kEmpty) {
      return kNoSlot;
    }
    if (keys_[i] == key) {
      return i;
    }
  }
}

size_t RpcDedupCache::FreeSlotFor(const Key& key) const {
  const size_t mask = keys_.size() - 1;
  size_t i = Home(key);
  while (states_[i] != kEmpty) {
    i = (i + 1) & mask;
  }
  return i;
}

void RpcDedupCache::Put(size_t slot, const Key& key, uint32_t state) {
  keys_[slot] = key;
  states_[slot] = state;
  if (IsCompleted(state)) {
    records_[state & ~kCompletedBit].slot = static_cast<uint32_t>(slot);
  }
}

void RpcDedupCache::Insert(const Key& key, uint32_t state) {
  if (4 * (entries_ + 1) > 3 * keys_.size()) {
    GrowIndex();
  }
  Put(FreeSlotFor(key), key, state);
  ++entries_;
}

void RpcDedupCache::GrowIndex() {
  std::vector<Key> old_keys = std::exchange(
      keys_, std::vector<Key>(std::max(kMinIndexSlots, 2 * keys_.size())));
  std::vector<uint32_t> old_states =
      std::exchange(states_, std::vector<uint32_t>(keys_.size(), kEmpty));
  for (size_t j = 0; j < old_keys.size(); ++j) {
    if (old_states[j] != kEmpty) {
      Put(FreeSlotFor(old_keys[j]), old_keys[j], old_states[j]);
    }
  }
}

void RpcDedupCache::EraseSlot(size_t slot) {
  const size_t mask = keys_.size() - 1;
  size_t hole = slot;
  for (size_t i = (slot + 1) & mask; states_[i] != kEmpty; i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home lies cyclically in
    // (hole, i]: then the hole is before its home and lookups would miss it.
    if (((i - Home(keys_[i])) & mask) >= ((i - hole) & mask)) {
      Put(hole, keys_[i], states_[i]);
      hole = i;
    }
  }
  states_[hole] = kEmpty;
  --entries_;
}

size_t RpcDedupCache::RecordAt(size_t i) const {
  const size_t at = records_head_ + i;
  return at < records_.size() ? at : at - records_.size();
}

void RpcDedupCache::GrowRecords(size_t needed) {
  // Double up to the window, so a full window holds exactly that many
  // records; past it (synthetic terminals after a crash) keep doubling.
  size_t capacity = std::max(kMinRecords, 2 * records_.size());
  if (needed <= completed_window_) {
    capacity = std::min(capacity, completed_window_);
  }
  capacity = std::max(capacity, needed);
  assert(capacity <= kCompletedBit && "record positions must fit a state word");
  std::vector<Record> wider(capacity);
  for (size_t i = 0; i < records_count_; ++i) {
    wider[i] = records_[RecordAt(i)];
    states_[wider[i].slot] = kCompletedBit | static_cast<uint32_t>(i);
  }
  records_ = std::move(wider);
  records_head_ = 0;
}

void RpcDedupCache::GrowBytes(size_t needed) {
  // Plain doubling from the first payload: a power-of-two window of equal
  // payloads ends at exactly window * size bytes.
  std::vector<uint8_t> wider(std::max(needed, 2 * bytes_.size()));
  assert(wider.size() <= UINT32_MAX && "payload offsets are 32 bits");
  size_t at = 0;
  for (size_t i = 0; i < records_count_; ++i) {
    Record& record = records_[RecordAt(i)];
    CopyPayload(record, wider.data() + at);
    record.payload_at = static_cast<uint32_t>(at);
    at += record.payload_size;
  }
  bytes_ = std::move(wider);
  bytes_head_ = 0;
}

void RpcDedupCache::CopyPayload(const Record& record, uint8_t* out) const {
  if (record.payload_size == 0) {
    return;
  }
  const size_t first = std::min<size_t>(record.payload_size, bytes_.size() - record.payload_at);
  std::memcpy(out, bytes_.data() + record.payload_at, first);
  std::memcpy(out + first, bytes_.data(), record.payload_size - first);
}

void RpcDedupCache::Append(size_t slot, const RpcMessage& response) {
  if (records_count_ == records_.size()) {
    GrowRecords(records_count_ + 1);
  }
  const size_t size = response.payload.size();
  if (bytes_used_ + size > bytes_.size()) {
    GrowBytes(bytes_used_ + size);
  }
  size_t at = bytes_head_ + bytes_used_;
  if (at >= bytes_.size()) {
    at -= bytes_.size();
  }
  if (size != 0) {
    const size_t first = std::min(size, bytes_.size() - at);
    std::memcpy(bytes_.data() + at, response.payload.data(), first);
    std::memcpy(bytes_.data(), response.payload.data() + first, size - first);
  }
  bytes_used_ += size;

  const size_t index = RecordAt(records_count_);
  Record& record = records_[index];
  record.request_id = response.request_id;
  record.service_id = response.service_id;
  record.slot = static_cast<uint32_t>(slot);
  record.payload_at = static_cast<uint32_t>(at);
  record.payload_size = static_cast<uint32_t>(size);
  record.method_id = response.method_id;
  record.status = response.status;
  record.grant = response.grant;
  record.kind = response.kind;
  record.flags = response.flags;
  ++records_count_;
  states_[slot] = kCompletedBit | static_cast<uint32_t>(index);
}

void RpcDedupCache::EvictOldest() {
  const Record& oldest = records_[records_head_];
  EraseSlot(oldest.slot);
  bytes_used_ -= oldest.payload_size;
  bytes_head_ = bytes_used_ == 0 ? 0 : (bytes_head_ + oldest.payload_size) % bytes_.size();
  records_head_ = RecordAt(1);
  --records_count_;
  ++stats_.evictions;
}

RpcDedupCache::Verdict RpcDedupCache::Admit(uint64_t flow, uint64_t request_id) {
  const Key key{flow, request_id};
  const size_t slot = Find(key);
  if (slot == kNoSlot) {
    Insert(key, kInFlight);
    ++stats_.admitted;
    return Verdict::kNew;
  }
  if (IsCompleted(states_[slot])) {
    ++stats_.duplicates_replayed;
    return Verdict::kCompleted;
  }
  ++stats_.duplicates_in_flight;
  return Verdict::kInFlight;
}

void RpcDedupCache::MarkDelivered(uint64_t flow, uint64_t request_id) {
  const size_t slot = Find(Key{flow, request_id});
  if (slot != kNoSlot && states_[slot] == kInFlight) {
    states_[slot] = kDelivered;
  }
}

void RpcDedupCache::Complete(uint64_t flow, uint64_t request_id,
                             const RpcMessage& response) {
  const Key key{flow, request_id};
  size_t slot = Find(key);
  if (slot == kNoSlot || IsCompleted(states_[slot])) {
    return;
  }
  // Make room first, so a full window never holds one record too many. The
  // entries evicted are the ones the window would drop once this one joins.
  const uint64_t evictions = stats_.evictions;
  while (records_count_ != 0 && records_count_ >= completed_window_) {
    EvictOldest();
  }
  if (stats_.evictions != evictions) {
    slot = Find(key);  // backward shifts may have moved it
  }
  if (completed_window_ == 0) {
    // The entry is its own oldest completion: evicted as it completes.
    EraseSlot(slot);
    ++stats_.evictions;
    return;
  }
  Append(slot, response);
}

void RpcDedupCache::Abort(uint64_t flow, uint64_t request_id) {
  const size_t slot = Find(Key{flow, request_id});
  if (slot != kNoSlot && !IsCompleted(states_[slot])) {
    EraseSlot(slot);
  }
}

RpcMessage RpcDedupCache::Replay(uint64_t flow, const RpcMessage& request) const {
  const size_t slot = Find(Key{flow, request.request_id});
  if (slot == kNoSlot || !IsCompleted(states_[slot])) {
    RpcMessage response =
        ResponseHeader(request.service_id, request.method_id, request.request_id);
    response.status = RpcStatus::kInternal;
    return response;
  }
  const Record& record = records_[states_[slot] & ~kCompletedBit];
  RpcMessage response;
  response.kind = record.kind;
  response.service_id = record.service_id;
  response.method_id = record.method_id;
  response.status = record.status;
  response.request_id = record.request_id;
  response.flags = record.flags;
  response.grant = record.grant;
  response.payload.resize(record.payload_size);
  CopyPayload(record, response.payload.data());
  return response;
}

RpcDedupCache::ReplayCounts RpcDedupCache::ReplayAfterCrash() {
  ReplayCounts counts;
  std::vector<Key> undelivered;
  std::vector<Key> unanswered;  // pinned by the previous replay
  for (size_t i = 0; i < keys_.size(); ++i) {
    switch (states_[i]) {
      case kEmpty:
        break;
      case kInFlight:
        undelivered.push_back(keys_[i]);
        break;
      case kDelivered:
        states_[i] = kPinned;
        ++counts.pinned;
        break;
      case kPinned:
        unanswered.push_back(keys_[i]);
        break;
      default:
        ++counts.completed;
        break;
    }
  }
  for (const Key& key : undelivered) {
    EraseSlot(Find(key));
    ++counts.dropped;
  }
  std::sort(unanswered.begin(), unanswered.end());
  for (const Key& key : unanswered) {
    RpcMessage terminal;
    terminal.kind = MessageKind::kResponse;
    terminal.status = RpcStatus::kInternal;
    terminal.request_id = key.request_id;
    Append(Find(key), terminal);
    ++counts.completed;
  }
  return counts;
}

}  // namespace lauberhorn
