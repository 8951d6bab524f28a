// Hashed timing wheel of reclamation deadlines (DESIGN.md §9): the clock
// behind the tables with a time-to-live — the fact base's calls, keyed
// groups and tombstones, the behavior engine's profiles, Vids's
// alert-dedup signatures and the sharded coordinator's media owners, one
// wheel per owner.
//
// A table files one record per entry: the instant the entry comes due, its
// slab index and a tag naming the table. The record goes into the slot of
// its instant, slot = floor(due / width) mod kSlots (Varghese & Lauck's
// hashed wheel), with one append. Drain(now) visits the slots from the one
// the last drain ended in through the one holding `now`, at most one
// revolution of them, and hands back exactly the records due at `now`
// (due <= now). A record of a later revolution, and one later in `now`'s
// own slot, stays where it is, so a drain at any instant, after any gap,
// takes the due set and nothing else.
//
// The wheel never erases a record. An entry that dies early or is touched
// after filing leaves its record in place, and its table decides when the
// record comes due whether it still applies: the lazy re-check that keeps
// the packet path at one last_event store.
//
// Records live in fixed-size blocks drawn from one pool that every slot
// shares, and a drained slot gives its blocks back. Steady churn therefore
// reuses the same blocks whichever slots it files into, and the pool grows
// only when more records are pending than ever before. Each block is its
// own 1 KiB allocation, so growth adds one block and moves no pending
// record; Release frees them all.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace vids::ids {

class ReclaimWheel {
 public:
  struct Record {
    sim::Time due;
    uint32_t item = 0;   // slab index in the tagged table
    uint32_t table = 0;  // the filing table's tag
  };

  /// Slots per revolution. A deadline further out than one revolution is
  /// filed in the slot its instant hashes to and skipped by the drains of
  /// the revolutions before its own.
  static constexpr int64_t kSlots = 256;

  explicit ReclaimWheel(sim::Duration slot_width)
      : width_ns_(std::max<int64_t>(slot_width.nanos(), 1)) {}

  /// Pending records, stale ones included.
  size_t size() const { return size_; }

  /// Files a record due at `due`. A record already due (before the slot the
  /// last drain ended in) goes into that slot, so the next drain takes it.
  void File(sim::Time due, uint32_t item, uint32_t table) {
    Slot& slot = slots_[Index(std::max(Tick(due), cursor_))];
    const uint32_t at = slot.size % kBlockRecords;
    if (at == 0) AppendBlock(slot);
    (*blocks_[slot.tail])[at] = Record{due, item, table};
    ++slot.size;
    ++size_;
  }

  /// Hands every record due at `now` to `take(const Record&)`, in slot
  /// order, and removes it. `take` must not file into the wheel.
  template <typename Take>
  void Drain(sim::Time now, Take take) {
    const int64_t last = std::max(Tick(now), cursor_);
    const int64_t first = last - cursor_ >= kSlots ? last - kSlots + 1 : cursor_;
    for (int64_t tick = first; tick <= last; ++tick) {
      DrainSlot(slots_[Index(tick)], now, take);
    }
    cursor_ = last;
  }

  /// Frees the record pool and forgets every pending record.
  void Release() {
    std::vector<std::unique_ptr<Block>>().swap(blocks_);
    std::vector<uint32_t>().swap(next_);
    slots_.fill(Slot{});
    free_ = kNone;
    size_ = 0;
  }

  /// The record pool: its blocks and the two per-block index vectors. The
  /// slot array is part of the owner's footprint.
  size_t MemoryBytes() const {
    return blocks_.size() * sizeof(Block) +
           blocks_.capacity() * sizeof(blocks_[0]) +
           next_.capacity() * sizeof(uint32_t);
  }

  static constexpr uint32_t kBlockRecords = 64;  // 1 KiB of records

 private:
  using Block = std::array<Record, kBlockRecords>;
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // A slot's records fill its chain of blocks from the head, in filing
  // order; only the tail block may be partly filled.
  struct Slot {
    uint32_t head = kNone;
    uint32_t tail = kNone;
    uint32_t size = 0;
  };

  int64_t Tick(sim::Time t) const {
    const int64_t ns = t.nanos();
    return ns >= 0 ? ns / width_ns_ : -((-ns - 1) / width_ns_) - 1;
  }
  static size_t Index(int64_t tick) {
    return static_cast<size_t>(static_cast<uint64_t>(tick) & (kSlots - 1));
  }

  void AppendBlock(Slot& slot) {
    uint32_t block = free_;
    if (block != kNone) {
      free_ = next_[block];
    } else {
      block = static_cast<uint32_t>(blocks_.size());
      blocks_.push_back(std::make_unique<Block>());
      next_.push_back(kNone);
    }
    next_[block] = kNone;
    if (slot.tail == kNone) {
      slot.head = block;
    } else {
      next_[slot.tail] = block;
    }
    slot.tail = block;
  }

  // Takes the slot's due records and compacts the rest to the front of its
  // chain; the blocks the kept records no longer need go back to the pool.
  template <typename Take>
  void DrainSlot(Slot& slot, sim::Time now, Take& take) {
    if (slot.size == 0) return;
    uint32_t read = slot.head;
    uint32_t write = slot.head;
    uint32_t kept = 0;
    for (uint32_t k = 0; k < slot.size; ++k) {
      const uint32_t at = k % kBlockRecords;
      if (at == 0) {
        if (k != 0) read = next_[read];
        if (next_[read] != kNone) {
          __builtin_prefetch(blocks_[next_[read]].get());
        }
      }
      const Record record = (*blocks_[read])[at];
      if (record.due <= now) {
        take(record);
        continue;
      }
      const uint32_t to = kept % kBlockRecords;
      if (to == 0 && kept != 0) write = next_[write];
      (*blocks_[write])[to] = record;
      ++kept;
    }
    size_ -= slot.size - kept;
    const uint32_t spare = kept == 0 ? slot.head : next_[write];
    if (spare != kNone) {
      next_[slot.tail] = free_;
      free_ = spare;
    }
    if (kept == 0) {
      slot = Slot{};
    } else {
      next_[write] = kNone;
      slot.tail = write;
      slot.size = kept;
    }
  }

  int64_t width_ns_;
  // Every slot of a tick before cursor_ is drained; cursor_'s own slot may
  // still hold records due later in its tick.
  int64_t cursor_ = 0;
  std::array<Slot, kSlots> slots_{};
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<uint32_t> next_;  // per block: the next block of its chain
  uint32_t free_ = kNone;       // first block of the free chain
  size_t size_ = 0;
};

}  // namespace vids::ids
