// Single-producer / single-consumer lock-free ring buffer.
//
// The sharded IDS engine (src/vids/sharded_ids.*) moves packets from the
// coordinator thread to each shard worker — and alerts/aggregate events back —
// over exactly-one-writer/exactly-one-reader queues, so the classic SPSC
// ring with release/acquire index handoff is all the synchronization the
// data plane needs. Design points:
//
//  - Fixed power-of-two capacity, allocated once at construction. The hot
//    path never allocates; a full ring is backpressure, not growth.
//  - In-place slot reuse: BeginPushN() hands the producer a pointer at the
//    reserved slot, which *reuses* whatever the slot already holds (a
//    Datagram's payload string keeps its capacity across laps — this is
//    what keeps the steady-state ingest path allocation-free).
//  - Batched publish (DESIGN.md §12): repeated BeginPushN() calls reserve
//    slots and one CommitPushN() publishes them all with a single release
//    store. The consumer mirrors with FrontN()/At()/PopN(): one acquire
//    load exposes up to K items, one release store retires them. A batch
//    of one is the single-slot case.
//  - head_ (consumer-owned) and tail_ (producer-owned) live on separate
//    cache lines; each side keeps a cached copy of the other's index and
//    only re-reads the shared atomic when the cache says full/empty.
//
// Memory ordering: CommitPushN stores tail_ with release; FrontN loads it
// with acquire. Everything the producer wrote before the commit — the slot
// contents AND any relaxed-atomic side state (per-shard metric counters,
// the worker's frontier timestamp) — is therefore visible to the consumer
// after it observes the new tail. PopN stores head_ with release so the
// producer's acquire re-read knows the slot is reusable. This pairing is
// the happens-before edge the whole sharded engine leans on; see
// DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

namespace vids::common {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2). The ring holds
  /// at most `capacity` elements; slots are default-constructed up front.
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Every slot in storage order, published or not. Only for a caller that
  /// knows no thread is writing the slots' contents.
  std::span<const T> slots() const { return slots_; }

  // ---- producer side ----

  /// Reserve the next slot after any still-unpublished batch slots, or
  /// nullptr if the ring (counting the open batch) is full. The returned
  /// slot retains its previous contents (reuse its buffers instead of
  /// reassigning fresh ones). Nothing is visible to the consumer until
  /// CommitPushN() publishes the whole open batch.
  T* BeginPushN() {
    const size_t tail = tail_.load(std::memory_order_relaxed) + pending_;
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return nullptr;  // full
    }
    ++pending_;
    return &slots_[tail & mask_];
  }

  /// Publish every slot reserved since the last commit: one release store
  /// regardless of batch size. No-op when the batch is empty.
  void CommitPushN() {
    if (pending_ == 0) return;
    tail_.store(tail_.load(std::memory_order_relaxed) + pending_,
                std::memory_order_release);
    pending_ = 0;
  }

  /// Slots reserved but not yet published (producer-side view).
  size_t open_push() const { return pending_; }

  // ---- consumer side ----

  /// Number of items ready to read, capped at `max`. Re-reads the shared
  /// tail only when the cached copy cannot already satisfy `max`, so a
  /// consumer draining K at a time pays one acquire load per batch.
  size_t FrontN(size_t max) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t avail = tail_cache_ - head;
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
    }
    return avail < max ? avail : max;
  }

  /// The i-th oldest readable element; `i` must be < the last FrontN()
  /// result. Valid until PopN() retires it.
  T& At(size_t i) {
    return slots_[(head_.load(std::memory_order_relaxed) + i) & mask_];
  }

  /// Consumer: retire the oldest `n` elements with one release store. The
  /// elements are NOT destroyed — the producer reuses them in place.
  void PopN(size_t n) {
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  /// Approximate occupancy; exact only from the producer or consumer thread.
  size_t SizeApprox() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  /// Occupancy as the producer sees it, counting the open (uncommitted)
  /// batch. Producer thread only. May overestimate — head_cache_ refreshes
  /// lazily — which is the right bias for a high-water-mark gauge: depth is
  /// never under-reported. The stale cache is bounded here: an apparent
  /// size above capacity refreshes head_cache_ first, so a depth gauge
  /// read by a producer that never hit backpressure cannot report a
  /// many-lap phantom depth.
  size_t SizeFromProducer() {
    const size_t tail = tail_.load(std::memory_order_relaxed) + pending_;
    if (tail - head_cache_ > mask_ + 1) {
      head_cache_ = head_.load(std::memory_order_acquire);
    }
    return tail - head_cache_;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;

  // Consumer-owned index + the producer's cached copy of it.
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) size_t head_cache_ = 0;   // producer-local
  size_t pending_ = 0;                  // producer-local: open-batch size
  // Producer-owned index + the consumer's cached copy of it.
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) size_t tail_cache_ = 0;   // consumer-local
};

}  // namespace vids::common
