// Packet Classifier (paper Fig. 3, bottom stage).
//
// Turns raw datagrams into protocol-tagged EFSM events carrying the input
// vector x̄ the predicates read: SIP header fields and SDP media parameters,
// or RTP header fields. Classification is by content alone — neither port
// nor sender says what a packet is, because attack traffic does not
// announce itself honestly. DecideProto is that decision, made in one
// place: the classifier and the sharded router both call it, so the shard
// a packet is routed to and the machines it reaches there agree on it.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "efsm/machine.h"
#include "net/datagram.h"
#include "sip/lazy_message.h"

namespace vids::ids {

enum class PacketProto { kSip, kRtp, kRtcp, kUnknown };

/// What a payload is, tried in this order: RTCP when rtp::IsRtcp accepts
/// (RTCP is RTP-shaped too), RTP when rtp::IsRtp does (the 12-byte fixed
/// header, version 2), SIP when `lazy` indexes it, else unknown. SIP starts
/// with an ASCII byte, so only crafted bytes pass both the RTP and the SIP
/// test; they are RTP. On kSip, `lazy` holds the payload's index.
PacketProto DecideProto(std::string_view payload, sip::LazyMessage& lazy);

/// RTCP runs on its media port + 1: the media endpoint of an RTCP datagram
/// sent to `dst` (nullopt for port 0), whose pattern group Vids::HandleRtcp
/// feeds and whose shard the sharded router picks.
std::optional<net::Endpoint> RtcpMediaEndpoint(const net::Endpoint& dst);

struct ClassifiedPacket {
  PacketProto proto = PacketProto::kUnknown;
  efsm::Event event;
  /// SIP: the Call-ID (call grouping key). RTP: empty — media is matched to
  /// a call through the fact base's media-endpoint index.
  std::string call_key;
  /// SIP INVITE: the destination AOR (INVITE-flood grouping key).
  std::string dest_key;
  /// Binary source/destination endpoints of the datagram — the fact base
  /// keys its media and victim indexes on these, no string round trips.
  net::Endpoint src;
  net::Endpoint dst;
};

class PacketClassifier {
 public:
  /// Classifies one datagram by DecideProto. Returns nullptr when it is
  /// unknown. The result points at per-protocol scratch owned by the
  /// classifier — valid until the next Classify call — so the steady-state
  /// path reuses event-argument and key-string capacity instead of
  /// rebuilding a ClassifiedPacket per packet. SIP fields come from the
  /// zero-copy lazy lexer; no sip::Message is materialized.
  const ClassifiedPacket* Classify(const net::Datagram& dgram,
                                   bool from_outside);

 private:
  const ClassifiedPacket* ClassifySip(const net::Datagram& dgram,
                                      bool from_outside);
  const ClassifiedPacket* ClassifyRtp(const net::Datagram& dgram,
                                      bool from_outside);
  const ClassifiedPacket* ClassifyRtcp(const net::Datagram& dgram,
                                       bool from_outside);

  // Reused per packet; each protocol shape writes its full argument set
  // every time (absent fields become monostate) so no value leaks from one
  // packet into the next.
  sip::LazyMessage lazy_;
  ClassifiedPacket sip_scratch_;
  ClassifiedPacket rtp_scratch_;
  ClassifiedPacket rtcp_scratch_;
};

/// Event names shared between the classifier and the machine definitions.
inline constexpr std::string_view kSipEvent = "SIP";
inline constexpr std::string_view kRtpEvent = "RTP";
inline constexpr std::string_view kRtcpEvent = "RTCP";
/// Synthesized by the Event Distributor for responses matching no call.
inline constexpr std::string_view kUnsolicitedEvent = "UNSOLICITED";
/// Synchronization channel and event names (δ_SIP→RTP of Fig. 2/5).
inline constexpr std::string_view kSipToRtpChannel = "SIP->RTP";
inline constexpr std::string_view kSyncOffer = "sync:offer";
inline constexpr std::string_view kSyncAnswer = "sync:answer";
inline constexpr std::string_view kSyncBye = "sync:bye";

/// Interned keys for the event argument vector x̄, shared by the classifier
/// (producer) and the machine predicates/actions (consumers) so hot-path
/// argument access never hashes a string.
namespace argkey {
// Transport endpoints (every packet event).
inline const efsm::ArgKey kSrcIp = efsm::ArgKey::Intern("src_ip");
inline const efsm::ArgKey kSrcPort = efsm::ArgKey::Intern("src_port");
inline const efsm::ArgKey kDstIp = efsm::ArgKey::Intern("dst_ip");
inline const efsm::ArgKey kDstPort = efsm::ArgKey::Intern("dst_port");
inline const efsm::ArgKey kFromOutside = efsm::ArgKey::Intern("from_outside");
// SIP.
inline const efsm::ArgKey kKind = efsm::ArgKey::Intern("kind");
inline const efsm::ArgKey kMethod = efsm::ArgKey::Intern("method");
inline const efsm::ArgKey kStatus = efsm::ArgKey::Intern("status");
inline const efsm::ArgKey kCallId = efsm::ArgKey::Intern("call_id");
inline const efsm::ArgKey kCseq = efsm::ArgKey::Intern("cseq");
inline const efsm::ArgKey kFrom = efsm::ArgKey::Intern("from");
inline const efsm::ArgKey kFromTag = efsm::ArgKey::Intern("from_tag");
inline const efsm::ArgKey kTo = efsm::ArgKey::Intern("to");
inline const efsm::ArgKey kToTag = efsm::ArgKey::Intern("to_tag");
inline const efsm::ArgKey kBranch = efsm::ArgKey::Intern("branch");
inline const efsm::ArgKey kSdpIp = efsm::ArgKey::Intern("sdp_ip");
inline const efsm::ArgKey kSdpPort = efsm::ArgKey::Intern("sdp_port");
inline const efsm::ArgKey kSdpCodec = efsm::ArgKey::Intern("sdp_codec");
inline const efsm::ArgKey kSdpPt = efsm::ArgKey::Intern("sdp_pt");
inline const efsm::ArgKey kUserAgent = efsm::ArgKey::Intern("user_agent");
// RTP / RTCP.
inline const efsm::ArgKey kSsrc = efsm::ArgKey::Intern("ssrc");
inline const efsm::ArgKey kSeq = efsm::ArgKey::Intern("seq");
inline const efsm::ArgKey kTs = efsm::ArgKey::Intern("ts");
inline const efsm::ArgKey kPt = efsm::ArgKey::Intern("pt");
inline const efsm::ArgKey kMarker = efsm::ArgKey::Intern("marker");
inline const efsm::ArgKey kPacketCount = efsm::ArgKey::Intern("packet_count");
// Synchronization events (δ_SIP→RTP payload).
inline const efsm::ArgKey kIp = efsm::ArgKey::Intern("ip");
inline const efsm::ArgKey kPort = efsm::ArgKey::Intern("port");
}  // namespace argkey

}  // namespace vids::ids
