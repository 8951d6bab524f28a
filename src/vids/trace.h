// In-memory traffic recorder.
//
// The online vIDS sits on a tap; for forensics and for building detection
// regression corpora you also want to keep the traffic it saw and re-run
// analysis later (with different thresholds, or a newer scenario base).
// TraceLog records timestamped datagrams from the tap's mirror port (or
// from the soak harness's feed) in memory. To persist a recording, write
// its records with capture::PcapWriter; capture::RunSource replays the
// file into a fresh Vids and reproduces the online run's alerts.
#pragma once

#include <vector>

#include "net/datagram.h"
#include "net/inline_tap.h"
#include "sim/scheduler.h"

namespace vids::ids {

struct TraceRecord {
  sim::Time when;
  bool from_outside = false;
  net::Datagram dgram;
};

class TraceLog {
 public:
  void Append(sim::Time when, const net::Datagram& dgram, bool from_outside);

  /// A tap monitor that records everything it sees with the scheduler's
  /// current time. `scheduler` and this object must outlive the tap's use.
  net::InlineTap::Monitor MakeRecorder(sim::Scheduler& scheduler);

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace vids::ids
