// Flat, recycled tables: the fact base's call, keyed-group and media-index
// storage (DESIGN.md §9).
//
// A FlatTable keeps its entries in a slab addressed by index and finds them
// through a FlatIndex, an open-addressing index from key hashes to slab
// indexes.
//
// The index stores no keys. Each slot holds a key's full hash and the slab
// index of the entry that holds the key, so a lookup compares hashes and asks
// the caller to compare a key only on a full-hash match, and erasing an entry
// whose hash and index are known compares no key at all. Linear probing with
// backward-shift deletion leaves no tombstones in a probe run, so deletions
// never force a rebuild. The slot array only grows, doubling when three
// quarters full (like unordered_map's buckets), until Release frees it.
//
// The slab recycles entries through an intrusive free list: erasing an entry
// frees nothing, and inserting one reuses the most recently erased entry with
// whatever capacity its strings and vectors kept. Steady churn therefore
// allocates and frees nothing once the slab and the index have reached the
// table's peak size. The slab grows by fixed-size chunks, so growing it
// never copies entries or holds two copies of the table at once.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace vids::ids {

/// Slab index of "no entry".
inline constexpr uint32_t kNoEntry = std::numeric_limits<uint32_t>::max();

class FlatIndex {
 public:
  /// The index filed under `hash` for which `matches(index)` holds, or
  /// kNoEntry. `matches` runs only on full-hash matches.
  template <typename Matches>
  uint32_t Find(uint64_t hash, Matches matches) const {
    if (size_ == 0) return kNoEntry;
    for (size_t pos = Home(hash);; pos = (pos + 1) & mask_) {
      const Slot& slot = slots_[pos];
      if (slot.index == kNoEntry) return kNoEntry;
      if (slot.hash == hash && matches(slot.index)) return slot.index;
    }
  }

  /// Files `index` under `hash`. Its key must not be filed already.
  void Insert(uint64_t hash, uint32_t index) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(Slot{hash, index});
    ++size_;
  }

  /// Removes `index`, which must be filed under `hash`.
  void Erase(uint64_t hash, uint32_t index) {
    size_t hole = Home(hash);
    while (slots_[hole].index != index) hole = (hole + 1) & mask_;
    // Backward shift: move each later slot of the run into the hole when
    // the hole lies between that slot's home and its position, so every
    // remaining key stays reachable from its home without a tombstone.
    for (size_t pos = (hole + 1) & mask_; slots_[pos].index != kNoEntry;
         pos = (pos + 1) & mask_) {
      const size_t home = Home(slots_[pos].hash);
      if (((pos - home) & mask_) >= ((pos - hole) & mask_)) {
        slots_[hole] = slots_[pos];
        hole = pos;
      }
    }
    slots_[hole].index = kNoEntry;
    --size_;
  }

  size_t size() const { return size_; }

  /// Starts loading the slot where a probe for `hash` begins.
  void Prefetch(uint64_t hash) const {
    if (size_ != 0) __builtin_prefetch(&slots_[Home(hash)]);
  }

  /// Unfiles every index, keeping the slot array.
  void Clear() {
    for (Slot& slot : slots_) slot.index = kNoEntry;
    size_ = 0;
  }

  /// Frees the slot array. The index must be empty.
  void Release() {
    std::vector<Slot>().swap(slots_);
    mask_ = 0;
    shift_ = 0;
  }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t index = kNoEntry;
  };
  static constexpr size_t kInitialSlots = 16;

  // Fibonacci hashing: the top bits of hash × 2^64/φ. The hashes stay the
  // ones the standard containers use (identity for integers); this spreads
  // keys that differ only in a few bits, such as packed endpoints.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Place(const Slot& slot) {
    size_t pos = Home(slot.hash);
    while (slots_[pos].index != kNoEntry) pos = (pos + 1) & mask_;
    slots_[pos] = slot;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    const size_t count = old.empty() ? kInitialSlots : old.size() * 2;
    slots_.resize(count);
    mask_ = count - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(count));
    for (const Slot& slot : old) {
      if (slot.index != kNoEntry) Place(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  size_t size_ = 0;
};

/// A slab of `Entry` records behind a FlatIndex. `Entry` provides
/// `uint64_t hash` (the key's hash, which the table fills in) and
/// `uint32_t next_free` (the free-list link); the caller stores and
/// compares the key itself. Indexes and references stay valid until the
/// entry is erased.
template <typename Entry>
class FlatTable {
 public:
  /// The entry filed under `hash` whose key `matches(index)` accepts, or
  /// kNoEntry.
  template <typename Matches>
  uint32_t Find(uint64_t hash, Matches matches) const {
    return index_.Find(hash, matches);
  }

  /// Files a recycled (or, when none is free, new) entry under `hash` and
  /// returns its index. The entry keeps the members its last use left; the
  /// caller overwrites the key and the state.
  uint32_t Insert(uint64_t hash) {
    uint32_t index = free_;
    if (index != kNoEntry) {
      free_ = (*this)[index].next_free;
    } else {
      index = built_++;
      if ((index & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
      }
    }
    (*this)[index].hash = hash;
    index_.Insert(hash, index);
    return index;
  }

  /// Unfiles entry `index` and parks it on the free list. Frees nothing.
  void Erase(uint32_t index) {
    Entry& entry = (*this)[index];
    index_.Erase(entry.hash, index);
    entry.next_free = free_;
    free_ = index;
  }

  Entry& operator[](uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Entry& operator[](uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.size() == 0; }

  /// Starts loading the index slot where erasing entry `index` begins.
  void PrefetchIndexSlot(uint32_t index) const {
    index_.Prefetch((*this)[index].hash);
  }

  /// Calls `visit` on every entry the slab holds, filed or free: the free
  /// ones' members keep capacity that memory accounting must count.
  template <typename Visit>
  void ForEachEntry(Visit visit) const {
    for (const auto& chunk : chunks_) {
      for (size_t i = 0; i < kChunkEntries; ++i) visit(chunk[i]);
    }
  }

  /// Frees the slab and the index. The table must be empty.
  void Release() {
    std::vector<std::unique_ptr<Entry[]>>().swap(chunks_);
    built_ = 0;
    free_ = kNoEntry;
    index_.Release();
  }

  /// The slab and the index, without what the entries' members hold.
  size_t MemoryBytes() const {
    return chunks_.size() * kChunkEntries * sizeof(Entry) +
           chunks_.capacity() * sizeof(chunks_[0]) + index_.MemoryBytes();
  }

 private:
  static constexpr unsigned kChunkShift = 8;
  static constexpr size_t kChunkEntries = size_t{1} << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkEntries - 1;

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  uint32_t built_ = 0;        // entries ever handed out; the rest are unused
  uint32_t free_ = kNoEntry;  // most recently erased entry
  FlatIndex index_;
};

}  // namespace vids::ids
