// Inline tap: the bump-in-the-wire network element the vIDS host occupies.
//
// Fig. 1/Fig. 7 place vIDS between the edge router and the protected
// network, seeing all traffic in both directions. The tap has two ports;
// the topology connects the outside link to port_from_outside() and the
// inside link to port_from_inside(), so the inspector learns the true
// arrival direction — which IP spoofing cannot forge.
//
// Processing model: the inspector returns a cost per packet and the *lane*
// it occupies; packets queue in a FIFO per lane and are forwarded when
// processing completes. There are two lanes — signaling and media — so
// heavyweight SIP analysis (~50 ms per message on the paper's hardware)
// delays call setup but does not serialize the latency-critical RTP fast
// path. This mirrors the paper's measurements, where vIDS adds ~100 ms to
// call setup yet only ~1.5 ms to RTP delay: impossible on a single shared
// service queue. With a null inspector the tap is the paper's "without
// vIDS" arm — plain forwarding at zero cost.
#pragma once

#include <cstdint>
#include <functional>

#include "net/link.h"
#include "net/node.h"
#include "sim/scheduler.h"

namespace vids::net {

class InlineTap {
 public:
  /// The two CPU queues of the processing model.
  enum class Lane : uint8_t { kSignaling, kMedia };
  /// The inspector's verdict on a packet: the CPU time to charge for it
  /// and the lane that time occupies.
  struct Verdict {
    sim::Duration cost;
    Lane lane = Lane::kMedia;
  };

  /// Inspects a packet and returns its verdict. `from_outside` is true
  /// when the packet arrived on the outside port.
  using Inspector = std::function<Verdict(const Datagram&, bool from_outside)>;

  InlineTap(std::string name, sim::Scheduler& scheduler)
      : scheduler_(scheduler),
        inside_port_(name + "/inside", *this, /*from_outside=*/false),
        outside_port_(name + "/outside", *this, /*from_outside=*/true) {}

  /// Node to which the *inside* network's link toward the tap connects.
  Node& port_from_inside() { return inside_port_; }
  /// Node to which the *outside* (Internet-facing) link connects.
  Node& port_from_outside() { return outside_port_; }

  /// Links the tap transmits on, one per side.
  void SetLinks(Link& toward_inside, Link& toward_outside) {
    inside_link_ = &toward_inside;
    outside_link_ = &toward_outside;
  }

  /// Installs the analysis stage. Pass nullptr to revert to plain forwarding.
  void SetInspector(Inspector inspector) { inspector_ = std::move(inspector); }

  /// A passive copy of every packet (a SPAN/mirror port): no cost, no
  /// reordering. Used by measurement probes and by attack eavesdroppers.
  using Monitor = std::function<void(const Datagram&, bool from_outside)>;
  void SetMonitor(Monitor monitor) { monitor_ = std::move(monitor); }

  uint64_t packets_seen() const { return packets_seen_; }
  /// Total simulated CPU time charged by the inspector.
  sim::Duration cpu_time_used() const { return cpu_time_used_; }

 private:
  class Port : public Node {
   public:
    Port(std::string name, InlineTap& tap, bool from_outside)
        : Node(std::move(name)), tap_(tap), from_outside_(from_outside) {}
    void Receive(const Datagram& dgram) override {
      tap_.HandlePacket(dgram, from_outside_);
    }

   private:
    InlineTap& tap_;
    bool from_outside_;
  };

  void HandlePacket(const Datagram& dgram, bool from_outside);
  void Forward(const Datagram& dgram, bool from_outside);

  sim::Scheduler& scheduler_;
  Port inside_port_;
  Port outside_port_;
  Link* inside_link_ = nullptr;
  Link* outside_link_ = nullptr;
  Inspector inspector_;
  Monitor monitor_;
  sim::Time busy_until_[2];  // per Lane
  uint64_t packets_seen_ = 0;
  sim::Duration cpu_time_used_;
};

}  // namespace vids::net
