// Spin-then-sleep backoff shared by the sharded engine's busy-wait loops.
//
// Both sides of the SPSC handoff wait the same way: a worker polling an
// empty down-ring and a worker blocked pushing into a full up-ring first
// yield for a bounded number of spins (so a message that is nanoseconds
// away is picked up with no added latency), then drop to a short sleep
// (so an idle engine does not pin a core at 100%). The spin count and the
// sleep are the named constants below.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace vids::common {

/// Yields this many times before the first sleep.
inline constexpr int kSpinsBeforeSleep = 256;
/// Idle-sleep once spinning gives up. Short enough to stay invisible next
/// to detection windows (which are seconds), long enough to leave the core.
inline constexpr int64_t kIdleSleepMicros = 50;

class SpinBackoff {
 public:
  SpinBackoff() = default;
  SpinBackoff(int spins, int64_t sleep_micros)
      : spins_(spins), sleep_micros_(sleep_micros) {}

  /// One wait step: yield while under the spin budget, sleep past it.
  void Pause() {
    if (++idle_ < spins_) {
      std::this_thread::yield();
      return;
    }
    ++sleeps_;
    if (sleep_micros_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros_));
    } else {
      std::this_thread::yield();
    }
  }

  /// Call after useful work: the next wait starts spinning again.
  void Reset() { idle_ = 0; }

  /// Times Pause() took the sleep path since construction. Only tests read
  /// it: the sharded engine's stall counters count waits, not sleeps.
  uint64_t sleeps() const { return sleeps_; }

 private:
  int spins_ = kSpinsBeforeSleep;
  int64_t sleep_micros_ = kIdleSleepMicros;
  int idle_ = 0;
  uint64_t sleeps_ = 0;
};

}  // namespace vids::common
