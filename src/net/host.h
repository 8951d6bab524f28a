// An end host with a single network interface and a UDP port demultiplexer.
//
// SIP user agents, proxies and attackers are applications bound to ports on
// Hosts. Attackers additionally use SendRaw to forge source addresses — the
// spoofed CANCEL/BYE attacks of §3.1 depend on it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/link.h"
#include "net/network.h"
#include "net/node.h"

namespace vids::net {

class Host : public Node {
 public:
  using UdpHandler = std::function<void(const Datagram&)>;

  Host(Network& network, std::string name, IpAddress ip)
      : Node(std::move(name)), network_(network), ip_(ip) {}

  IpAddress ip() const { return ip_; }

  /// The host's uplink toward the rest of the network. Must be set before
  /// sending.
  void SetUplink(Link& link) { uplink_ = &link; }

  /// Registers `handler` for datagrams addressed to `port`. Overwrites any
  /// previous binding.
  void BindUdp(uint16_t port, UdpHandler handler) {
    udp_handlers_[port] = std::move(handler);
  }
  void UnbindUdp(uint16_t port) { udp_handlers_.erase(port); }

  /// Sends a UDP datagram from this host's address.
  void SendUdp(uint16_t src_port, Endpoint dst, std::string payload,
               uint32_t padding_bytes = 0);

  /// Sends a fully caller-controlled datagram (spoofing allowed). Used by
  /// attack injectors; legitimate applications use SendUdp.
  void SendRaw(Datagram dgram);

  void Receive(const Datagram& dgram) override;

  uint64_t datagrams_sent() const { return datagrams_sent_; }
  uint64_t datagrams_received() const { return datagrams_received_; }
  uint64_t datagrams_dropped() const { return datagrams_dropped_; }

 private:
  Network& network_;
  IpAddress ip_;
  Link* uplink_ = nullptr;
  std::map<uint16_t, UdpHandler> udp_handlers_;
  uint64_t datagrams_sent_ = 0;
  uint64_t datagrams_received_ = 0;
  uint64_t datagrams_dropped_ = 0;
};

}  // namespace vids::net
