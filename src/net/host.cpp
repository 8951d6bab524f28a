#include "net/host.h"

#include <stdexcept>

#include "common/log.h"

namespace vids::net {

void Host::SendUdp(uint16_t src_port, Endpoint dst, std::string payload,
                   uint32_t padding_bytes) {
  Datagram dgram;
  dgram.src = Endpoint{ip_, src_port};
  dgram.dst = dst;
  dgram.payload = std::move(payload);
  dgram.padding_bytes = padding_bytes;
  SendRaw(std::move(dgram));
}

void Host::SendRaw(Datagram dgram) {
  if (uplink_ == nullptr) {
    throw std::logic_error(std::string(name()) + ": SendRaw before SetUplink");
  }
  dgram.sent_time = network_.scheduler().Now();
  dgram.id = network_.NextDatagramId();
  ++datagrams_sent_;
  uplink_->Send(std::move(dgram));
}

void Host::Receive(const Datagram& dgram) {
  if (dgram.dst.ip != ip_) {
    ++datagrams_dropped_;
    return;
  }
  const auto it = udp_handlers_.find(dgram.dst.port);
  if (it == udp_handlers_.end()) {
    ++datagrams_dropped_;
    VIDS_TRACE() << name() << ": no listener on port " << dgram.dst.port;
    return;
  }
  ++datagrams_received_;
  it->second(dgram);
}

}  // namespace vids::net
