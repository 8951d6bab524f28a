// RTCP — RTP's companion control protocol (RFC 3550 §6), subset.
//
// Extension beyond the paper: vIDS's thesis is that *interacting* protocol
// machines catch what single-protocol views miss; RTCP is the natural
// third machine. Sender Reports carry the sender's own packet/octet
// counts (a consistency oracle against observed media), and the RTCP BYE
// announces end-of-stream — giving a second, SIP-independent teardown
// signal to cross-check against continuing RTP (see the ghost-media
// pattern in vids/patterns.h).
//
// Implemented packet types: SR (200), RR (201), BYE (203), each as a
// single (non-compound) packet — enough for the detection semantics;
// compound packing is a wire-efficiency concern only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vids::rtp {

enum class RtcpType : uint8_t {
  kSenderReport = 200,
  kReceiverReport = 201,
  kBye = 203,
};

/// One reception report block (inside SR/RR).
struct ReportBlock {
  uint32_t ssrc = 0;            // stream being reported on
  uint8_t fraction_lost = 0;    // fixed-point /256 since last report
  uint32_t cumulative_lost = 0; // 24-bit on the wire
  uint32_t highest_seq = 0;     // extended highest sequence received
  uint32_t jitter = 0;          // RFC 3550 §6.4.1 in timestamp units

  bool operator==(const ReportBlock&) const = default;
};

struct SenderReport {
  uint32_t sender_ssrc = 0;
  uint64_t ntp_timestamp = 0;
  uint32_t rtp_timestamp = 0;
  uint32_t packet_count = 0;
  uint32_t octet_count = 0;
  std::vector<ReportBlock> reports;

  std::string Serialize() const;
  bool operator==(const SenderReport&) const = default;
};

struct ReceiverReport {
  uint32_t sender_ssrc = 0;
  std::vector<ReportBlock> reports;

  std::string Serialize() const;
  bool operator==(const ReceiverReport&) const = default;
};

struct RtcpBye {
  std::vector<uint32_t> ssrcs;
  std::string reason;

  std::string Serialize() const;
  bool operator==(const RtcpBye&) const = default;
};

/// A parsed RTCP packet (exactly one alternative set).
struct RtcpPacket {
  std::optional<SenderReport> sr;
  std::optional<ReceiverReport> rr;
  std::optional<RtcpBye> bye;

  RtcpType type() const {
    if (sr) return RtcpType::kSenderReport;
    if (rr) return RtcpType::kReceiverReport;
    return RtcpType::kBye;
  }
};

/// The RTCP decision: true exactly when ParseRtcp accepts `data` (version
/// 2, SR, RR or BYE whose declared length and report count fit), without
/// building the packet. An RTP packet with the marker bit set and payload
/// type 72..76 carries 200..204 in the type byte, so the type alone
/// decides nothing. ids::DecideProto, which the classifier and the
/// sharded router both call, tests this first.
bool IsRtcp(std::string_view data);

/// Parses one RTCP packet. Returns nullopt when IsRtcp rejects `data`.
std::optional<RtcpPacket> ParseRtcp(std::string_view data);

}  // namespace vids::rtp
