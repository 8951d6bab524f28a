// Per-call flight recorder: a preallocated ring of compact binary events.
//
// Every machine group (one per monitored call / keyed pattern) owns one
// ring. Producers write 24-byte records — EFSM transitions with
// machine/state/transition ids, FIFO channel sends, fact-base assertions
// and retractions, alert emissions — so when an alert fires, the last
// kCapacity events of its call explain *why*: the cross-protocol
// "interacting state machines" story made inspectable after the fact.
//
// The ring is inline storage (no heap beyond the owning group) and Record()
// is an array store plus a head increment, so recording every transition on
// the per-packet hot path stays allocation-free. Records hold only integer
// ids; the producer layer (which owns the machine definitions and intern
// tables) decodes them back to names when a human-readable report is built.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

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

class FlightRecorder {
 public:
  /// Ring capacity — also the "preceding <= 32 events" provenance window.
  static constexpr size_t kCapacity = 32;
  static_assert((kCapacity & (kCapacity - 1)) == 0, "power of two");

  void Record(const obs::Record& r) {
    ring_[head_ & (kCapacity - 1)] = r;
    ++head_;
  }

  /// Forgets all records — used when a recycled machine group is reset for
  /// a new call, so provenance never leaks across calls. Stale ring slots
  /// are unreachable (size() derives from the head counter).
  void Reset() { head_ = 0; }

  /// Records currently held (saturates at kCapacity).
  size_t size() const { return head_ < kCapacity ? head_ : kCapacity; }
  /// Total records ever written (ring overwrites included).
  uint64_t total_recorded() const { return head_; }

  /// Visits held records oldest → newest.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t begin = head_ < kCapacity ? 0 : head_ - kCapacity;
    for (uint64_t i = begin; i < head_; ++i) {
      fn(ring_[i & (kCapacity - 1)]);
    }
  }

  void Clear() { head_ = 0; }

 private:
  std::array<obs::Record, kCapacity> ring_{};
  uint64_t head_ = 0;
};

}  // namespace vids::obs
