// The unit of simulated traffic: a UDP datagram.
//
// SIP (the paper prefers UDP transport, §2.1) and RTP both ride on UDP, so
// the simulator carries exactly one packet type. The wire size used for link
// serialization is payload + padding + the 28-byte UDP/IPv4 header.
// What protocol a datagram carries is decided from its payload bytes alone
// (ids::DecideProto): attack traffic does not announce itself honestly.
#pragma once

#include <cstdint>
#include <string>

#include "net/address.h"
#include "sim/time.h"

namespace vids::net {

struct Datagram {
  Endpoint src;
  Endpoint dst;
  std::string payload;

  /// Extra bytes counted on the wire but not carried in `payload`; used to
  /// model the paper's constant 500-byte SIP messages and codec payloads
  /// without materializing filler bytes.
  uint32_t padding_bytes = 0;

  /// Stamped by the sending host; receivers use it to measure one-way delay.
  sim::Time sent_time;

  /// Unique per-simulation id, for tracing and duplicate detection.
  uint64_t id = 0;

  /// Bytes occupying the link, including UDP/IPv4 headers.
  uint32_t WireBytes() const {
    return static_cast<uint32_t>(payload.size()) + padding_bytes + 28;
  }
};

}  // namespace vids::net
