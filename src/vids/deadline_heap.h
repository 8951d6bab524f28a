// Intrusive indexed min-heap of deadlines: the fact base's idle-reclamation
// index (DESIGN.md §9).
//
// The heap holds pointers to nodes owned elsewhere — the fact base's
// unordered_map nodes, whose addresses survive rehashing — ordered by the
// deadline each was filed under. Every node stores its own heap position
// (reached through the `SlotOf` accessor), so a node that its map erases
// for another reason leaves the heap in O(log n) and the heap never holds a
// stale item: its size is exactly the number of filed nodes.
//
// Four-ary rather than binary: a sift step compares four adjacent slots
// (one cache line) and the tree is half as deep, which matters because
// every slot move also writes the moved node's position into its map node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.h"

namespace vids::ids {

/// Position-field value of a node that is not in a DeadlineHeap.
inline constexpr uint32_t kDeadlineUnfiled =
    std::numeric_limits<uint32_t>::max();

/// `SlotOf` is a stateless functor returning a reference to the node's
/// `uint32_t` position field (kDeadlineUnfiled while the node is not filed).
template <typename Node, typename SlotOf>
class DeadlineHeap {
 public:
  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  /// The node with the earliest filed deadline. The heap must not be empty.
  Node& top() const { return *slots_.front().node; }
  sim::Time top_deadline() const { return slots_.front().deadline; }

  /// Files `node`, which must not be filed already, under `deadline`.
  void Push(Node& node, sim::Time deadline) {
    slots_.push_back(Slot{deadline, &node});
    SiftUp(slots_.size() - 1);
  }

  /// Re-files the top node under `deadline`, which must not be earlier
  /// than the one it was filed under.
  void RefileTop(sim::Time deadline) {
    slots_.front().deadline = deadline;
    SiftDown(0);
  }

  /// Removes `node`, which must be filed.
  void Erase(Node& node) {
    const size_t pos = SlotOf{}(node);
    SlotOf{}(node) = kDeadlineUnfiled;
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

  /// Frees the slot storage. The heap must be empty.
  void Release() { std::vector<Slot>().swap(slots_); }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr size_t kArity = 4;

  struct Slot {
    sim::Time deadline;
    Node* node;
  };

  void Place(size_t pos, const Slot& slot) {
    slots_[pos] = slot;
    SlotOf{}(*slot.node) = static_cast<uint32_t>(pos);
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
};

}  // namespace vids::ids
