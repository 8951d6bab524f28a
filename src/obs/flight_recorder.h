// Per-call flight recorder: a ring of compact binary events, stored in
// chunks drawn from a pool.
//
// Every machine group (one per monitored call / keyed pattern) owns one
// ring. Producers write 24-byte records — EFSM transitions with
// machine/state/transition ids, FIFO channel sends, fact-base assertions
// and retractions, alert emissions — so when an alert fires, the last
// kCapacity events of its call explain *why*: the cross-protocol
// "interacting state machines" story made inspectable after the fact.
//
// A ring holds its records in up to kCapacity / kFlightChunkRecords chunks
// of kFlightChunkRecords records each. It takes a chunk from its pool when
// it writes the first record of a chunk it does not hold yet, keeps its
// chunks while it wraps, and gives them all back when it is reset. Most
// groups write far fewer than kCapacity records (a media endpoint's group
// holds about seven), so a ring costs what its group recorded, not the
// whole window. Record() is a chunk lookup, an array store and a head
// increment; it allocates only when the pool has no free chunk and grows
// by one slab. Records hold only integer ids; the producer layer (which owns
// the machine definitions and intern tables) decodes them back to names
// when a human-readable report is built.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vids::obs {

enum class RecordType : uint8_t {
  kNone = 0,
  kTransition,   // machine, from/to state ids, a = transition index
  kSyncSend,     // machine = sender, a = interned event name, aux = channel id
  kDeviation,    // machine, from = state, a = interned event name
  kFactAssert,   // fact-base assertion; aux = producer-tagged payload
  kFactRetract,  // fact-base retraction; aux = producer-tagged payload
  kAlert,        // machine, a = interned classification, aux = alert kind
};

/// One compact binary event. Field semantics depend on `type` (see
/// RecordType); the producer assigns and decodes them.
struct Record {
  int64_t when_ns = 0;   // simulated time of the event
  uint64_t aux = 0;      // type-specific payload
  uint16_t a = 0;        // type-specific id (transition index, interned name)
  int16_t from = 0;      // state id before the event
  int16_t to = 0;        // state id after the event
  uint8_t machine = kNoMachine;  // index of the machine within its group
  RecordType type = RecordType::kNone;

  static constexpr uint8_t kNoMachine = 0xFF;
};
static_assert(sizeof(Record) == 24, "flight record must stay compact");

/// Records per chunk: the unit a ring takes from its pool.
inline constexpr size_t kFlightChunkRecords = 8;
using FlightChunk = std::array<Record, kFlightChunkRecords>;
static_assert(sizeof(FlightChunk) == 192);

/// The chunks of many rings. Chunks are addressed by index and allocated
/// in slabs of kSlabChunks that never move, as FlatTable grows its slab.
/// Take() hands out the free chunk with the lowest index, so live chunks
/// gather in the low slabs and the high ones empty out; Trim() frees empty
/// slabs from the top. One thread uses a pool (DESIGN.md §11).
class FlightRecordPool {
 public:
  static constexpr uint32_t kNoChunk = UINT32_MAX;
  static constexpr size_t kSlabChunks = 64;  // one bit word per slab

  FlightRecordPool() = default;
  FlightRecordPool(const FlightRecordPool&) = delete;
  FlightRecordPool& operator=(const FlightRecordPool&) = delete;
  FlightRecordPool(FlightRecordPool&&) = default;
  FlightRecordPool& operator=(FlightRecordPool&&) = default;

  /// The lowest free chunk, after adding a slab when none is free.
  uint32_t Take() {
    if (in_use_ == slabs_.size() * kSlabChunks) AddSlab();
    size_t word = lowest_;
    while (slabs_with_free_[word] == 0) ++word;
    lowest_ = word;
    const size_t slab = word * 64 + std::countr_zero(slabs_with_free_[word]);
    uint64_t& free = free_[slab];
    const unsigned bit = std::countr_zero(free);
    free &= free - 1;
    if (free == 0) slabs_with_free_[word] &= ~(uint64_t{1} << (slab & 63));
    ++in_use_;
    return static_cast<uint32_t>(slab * kSlabChunks + bit);
  }

  /// Returns a chunk Take() handed out.
  void Give(uint32_t chunk) {
    const size_t slab = chunk / kSlabChunks;
    uint64_t& free = free_[slab];
    const uint64_t bit = uint64_t{1} << (chunk % kSlabChunks);
    assert((free & bit) == 0 && "chunk returned twice");
    if (free == 0) slabs_with_free_[slab / 64] |= uint64_t{1} << (slab & 63);
    free |= bit;
    if (slab / 64 < lowest_) lowest_ = slab / 64;
    --in_use_;
  }

  FlightChunk& operator[](uint32_t chunk) {
    return slabs_[chunk / kSlabChunks][chunk % kSlabChunks];
  }
  const FlightChunk& operator[](uint32_t chunk) const {
    return slabs_[chunk / kSlabChunks][chunk % kSlabChunks];
  }

  /// Chunks handed out and not returned.
  size_t in_use() const { return in_use_; }
  /// Chunks the slabs hold, handed out or free.
  size_t capacity() const { return slabs_.size() * kSlabChunks; }
  /// True if `chunk` lies in a slab and is not handed out.
  bool IsFree(uint32_t chunk) const {
    return chunk < capacity() &&
           (free_[chunk / kSlabChunks] >> (chunk % kSlabChunks) & 1) != 0;
  }

  /// Frees empty slabs from the top while at least `keep` free chunks stay.
  void Trim(size_t keep) {
    while (!slabs_.empty() && free_.back() == ~uint64_t{0} &&
           capacity() - in_use_ >= keep + kSlabChunks) {
      const size_t slab = slabs_.size() - 1;
      slabs_.pop_back();
      free_.pop_back();
      slabs_with_free_[slab / 64] &= ~(uint64_t{1} << (slab & 63));
      if (slab % 64 == 0) slabs_with_free_.pop_back();
    }
  }

  /// Frees every slab. No chunk may be handed out.
  void Release() {
    assert(in_use_ == 0);
    std::vector<std::unique_ptr<FlightChunk[]>>().swap(slabs_);
    std::vector<uint64_t>().swap(free_);
    std::vector<uint64_t>().swap(slabs_with_free_);
    lowest_ = 0;
  }

  /// The slabs and their bookkeeping, handed-out chunks included.
  size_t MemoryBytes() const {
    return capacity() * sizeof(FlightChunk) +
           slabs_.capacity() * sizeof(slabs_[0]) +
           (free_.capacity() + slabs_with_free_.capacity()) * sizeof(uint64_t);
  }

 private:
  void AddSlab() {
    const size_t slab = slabs_.size();
    slabs_.push_back(std::make_unique<FlightChunk[]>(kSlabChunks));
    free_.push_back(~uint64_t{0});
    if (slab % 64 == 0) slabs_with_free_.push_back(0);
    slabs_with_free_[slab / 64] |= uint64_t{1} << (slab & 63);
    if (slab / 64 < lowest_) lowest_ = slab / 64;
  }

  std::vector<std::unique_ptr<FlightChunk[]>> slabs_;
  std::vector<uint64_t> free_;             // per slab: bit i = chunk i free
  std::vector<uint64_t> slabs_with_free_;  // bit s % 64 of word s / 64
  size_t lowest_ = 0;  // no word of slabs_with_free_ below it is nonzero
  size_t in_use_ = 0;
};

class FlightRecorder {
 public:
  /// Ring capacity — also the "preceding <= 32 events" provenance window.
  static constexpr size_t kCapacity = 32;
  static constexpr size_t kChunks = kCapacity / kFlightChunkRecords;
  static_assert((kChunks & (kChunks - 1)) == 0, "power of two");

  /// `pool` must outlive the ring.
  explicit FlightRecorder(FlightRecordPool& pool) : pool_(&pool) {
    chunks_.fill(FlightRecordPool::kNoChunk);
  }
  ~FlightRecorder() { Reset(); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const obs::Record& r) {
    uint32_t& chunk = chunks_[(head_ / kFlightChunkRecords) & (kChunks - 1)];
    if (chunk == FlightRecordPool::kNoChunk) chunk = pool_->Take();
    (*pool_)[chunk][head_ % kFlightChunkRecords] = r;
    ++head_;
  }

  /// Forgets all records and gives the chunks back to the pool — used when
  /// a recycled machine group is reset for a new call, so provenance never
  /// leaks across calls.
  void Reset() {
    for (uint32_t& chunk : chunks_) {
      if (chunk != FlightRecordPool::kNoChunk) pool_->Give(chunk);
      chunk = FlightRecordPool::kNoChunk;
    }
    head_ = 0;
  }

  /// Records currently held (saturates at kCapacity).
  size_t size() const { return head_ < kCapacity ? head_ : kCapacity; }
  /// Total records ever written (ring overwrites included).
  uint64_t total_recorded() const { return head_; }

  /// Visits held records oldest → newest.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t begin = head_ < kCapacity ? 0 : head_ - kCapacity;
    for (uint64_t i = begin; i < head_; ++i) {
      fn((*pool_)[chunks_[(i / kFlightChunkRecords) & (kChunks - 1)]]
                 [i % kFlightChunkRecords]);
    }
  }

  /// Pool indexes of the chunks the ring holds.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (const uint32_t chunk : chunks_) {
      if (chunk != FlightRecordPool::kNoChunk) fn(chunk);
    }
  }
  /// Chunks the ring holds: one per kFlightChunkRecords records written,
  /// at most kChunks.
  size_t chunk_count() const {
    const uint64_t needed =
        (head_ + kFlightChunkRecords - 1) / kFlightChunkRecords;
    return needed < kChunks ? needed : kChunks;
  }
  /// The pool memory the ring holds, beyond the ring object.
  size_t MemoryBytes() const { return chunk_count() * sizeof(FlightChunk); }

 private:
  FlightRecordPool* pool_;
  std::array<uint32_t, kChunks> chunks_;
  uint64_t head_ = 0;
};

}  // namespace vids::obs
