// Indexed min-heap of deadlines: the fact base's idle-reclamation index
// (DESIGN.md §9).
//
// The heap holds items by index — the slab indexes of the fact base's flat
// tables (flat_index.h) — ordered by the deadline each was filed under. It
// keeps every item's heap position in a dense array beside the heap, so an
// item that its table erases for another reason leaves the heap in
// O(log n) and the heap never holds a stale item: its size is exactly the
// number of filed items. Keeping the positions out of the table entries
// also keeps the writes every slot move makes inside one small array
// rather than scattered over the slab.
//
// Four-ary rather than binary: a sift step compares four adjacent slots
// (one cache line) and the tree is half as deep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.h"

namespace vids::ids {

class DeadlineHeap {
 public:
  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  /// True while `item` is filed.
  bool filed(uint32_t item) const {
    return item < positions_.size() && positions_[item] != kUnfiled;
  }
  /// The item with the earliest filed deadline. The heap must not be empty.
  uint32_t top() const { return slots_.front().item; }
  sim::Time top_deadline() const { return slots_.front().deadline; }

  /// Files `item`, which must not be filed already, under `deadline`.
  void Push(uint32_t item, sim::Time deadline) {
    if (item >= positions_.size()) positions_.resize(item + 1, kUnfiled);
    slots_.push_back(Slot{deadline, item});
    SiftUp(slots_.size() - 1);
  }

  /// Re-files the top item under `deadline`, which must not be earlier
  /// than the one it was filed under.
  void RefileTop(sim::Time deadline) {
    slots_.front().deadline = deadline;
    SiftDown(0);
  }

  /// Removes `item`, which must be filed.
  void Erase(uint32_t item) {
    const size_t pos = positions_[item];
    positions_[item] = kUnfiled;
    const Slot last = slots_.back();
    slots_.pop_back();
    if (pos == slots_.size()) return;  // it was the last slot
    slots_[pos] = last;
    if (pos > 0 && last.deadline < slots_[(pos - 1) / kArity].deadline) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }

  /// Frees the slot and position storage. The heap must be empty.
  void Release() {
    std::vector<Slot>().swap(slots_);
    std::vector<uint32_t>().swap(positions_);
  }

  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           positions_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kArity = 4;
  static constexpr uint32_t kUnfiled = std::numeric_limits<uint32_t>::max();

  struct Slot {
    sim::Time deadline;
    uint32_t item;
  };

  void Place(size_t pos, const Slot& slot) {
    slots_[pos] = slot;
    positions_[slot.item] = static_cast<uint32_t>(pos);
  }

  void SiftUp(size_t pos) {
    const Slot moving = slots_[pos];
    while (pos > 0) {
      const size_t parent = (pos - 1) / kArity;
      if (!(moving.deadline < slots_[parent].deadline)) break;
      Place(pos, slots_[parent]);
      pos = parent;
    }
    Place(pos, moving);
  }

  void SiftDown(size_t pos) {
    const Slot moving = slots_[pos];
    const size_t n = slots_.size();
    for (;;) {
      const size_t first = pos * kArity + 1;
      if (first >= n) break;
      const size_t end = first + kArity < n ? first + kArity : n;
      // Start loading every child's own children before comparing: the
      // next level is one of those four blocks, and in a large heap the
      // lower levels miss the cache.
      for (size_t child = first; child < end && child * kArity + 1 < n;
           ++child) {
        __builtin_prefetch(&slots_[child * kArity + 1]);
      }
      size_t best = first;
      for (size_t child = first + 1; child < end; ++child) {
        if (slots_[child].deadline < slots_[best].deadline) best = child;
      }
      if (!(slots_[best].deadline < moving.deadline)) break;
      Place(pos, slots_[best]);
      pos = best;
    }
    Place(pos, moving);
  }

  std::vector<Slot> slots_;
  // Heap position of every item index, kUnfiled when the item is not
  // filed; grows to the largest item ever filed.
  std::vector<uint32_t> positions_;
};

}  // namespace vids::ids
