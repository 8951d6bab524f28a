#include "net/inline_tap.h"

#include <algorithm>

#include "common/log.h"

namespace vids::net {

void InlineTap::HandlePacket(const Datagram& dgram, bool from_outside) {
  ++packets_seen_;
  if (monitor_) monitor_(dgram, from_outside);
  Verdict verdict;
  if (inspector_) verdict = inspector_(dgram, from_outside);
  if (verdict.cost <= sim::Duration{}) {
    Forward(dgram, from_outside);
    return;
  }
  cpu_time_used_ += verdict.cost;
  sim::Time& lane = busy_until_[static_cast<size_t>(verdict.lane)];
  const sim::Time start = std::max(scheduler_.Now(), lane);
  lane = start + verdict.cost;
  scheduler_.ScheduleAt(lane, [this, dgram, from_outside] {
    Forward(dgram, from_outside);
  });
}

void InlineTap::Forward(const Datagram& dgram, bool from_outside) {
  Link* out = from_outside ? inside_link_ : outside_link_;
  if (out == nullptr) {
    VIDS_DEBUG() << "tap: no link on the "
                 << (from_outside ? "inside" : "outside") << " side";
    return;
  }
  out->Send(dgram);
}

}  // namespace vids::net
