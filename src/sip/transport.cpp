#include "sip/transport.h"

#include "common/log.h"

namespace vids::sip {

Transport::Transport(net::Host& host, uint16_t port, uint32_t pad_to_bytes)
    : host_(host), port_(port), pad_to_bytes_(pad_to_bytes) {
  host_.BindUdp(port_, [this](const net::Datagram& dgram) {
    auto message = Message::Parse(dgram.payload);
    if (!message) {
      ++parse_errors_;
      VIDS_DEBUG() << host_.name() << ": unparsable SIP datagram from "
                   << dgram.src;
      return;
    }
    ++messages_received_;
    if (receiver_) receiver_(*message, dgram);
  });
}

Transport::~Transport() { host_.UnbindUdp(port_); }

void Transport::Send(const Message& message, net::Endpoint dst) {
  std::string wire = message.Serialize();
  uint32_t padding = 0;
  if (wire.size() < pad_to_bytes_) {
    padding = pad_to_bytes_ - static_cast<uint32_t>(wire.size());
  }
  ++messages_sent_;
  host_.SendUdp(port_, dst, std::move(wire), padding);
}

}  // namespace vids::sip
