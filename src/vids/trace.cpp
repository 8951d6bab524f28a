#include "vids/trace.h"

namespace vids::ids {

void TraceLog::Append(sim::Time when, const net::Datagram& dgram,
                      bool from_outside) {
  records_.push_back(TraceRecord{when, from_outside, dgram});
}

net::InlineTap::Monitor TraceLog::MakeRecorder(sim::Scheduler& scheduler) {
  return [this, &scheduler](const net::Datagram& dgram, bool from_outside) {
    Append(scheduler.Now(), dgram, from_outside);
  };
}

}  // namespace vids::ids
