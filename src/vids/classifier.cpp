#include "vids/classifier.h"

#include <cstdio>

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"

namespace vids::ids {

namespace {

// Overwrites a slot with string content, reusing the existing std::string's
// capacity when the slot already holds one (the steady-state case).
void AssignStr(efsm::Value& slot, std::string_view text) {
  if (auto* str = std::get_if<std::string>(&slot)) {
    str->assign(text);
  } else {
    slot.emplace<std::string>(text);
  }
}

void AssignAbsent(efsm::Value& slot) { slot = efsm::Value{}; }

// "user@host" without the temporary UserAtHost() builds.
void AssignUserAtHost(efsm::Value& slot, const sip::UriView& uri) {
  if (auto* str = std::get_if<std::string>(&slot)) {
    str->assign(uri.user);
  } else {
    slot.emplace<std::string>(uri.user);
  }
  auto& str = std::get<std::string>(slot);
  str.push_back('@');
  str.append(uri.host);
}

void AssignIp(efsm::Value& slot, net::IpAddress ip) {
  net::IpAddress::FormatBuffer buf;
  AssignStr(slot, ip.Format(buf));
}

// Every classifier scratch event is filled with the same keys in the same
// order on every packet, so each write names its position and EventArgs'
// Slot fast path resolves it with one integer compare in the steady state.
// The slot constants below pin that order per protocol shape.
enum SlotIndex : size_t {
  kSlotSrcIp,
  kSlotSrcPort,
  kSlotDstIp,
  kSlotDstPort,
  kSlotFromOutside,
  kSlotProtoFirst,  // first protocol-specific slot
};

void PutEndpoints(efsm::Event& event, const net::Datagram& dgram,
                  bool from_outside) {
  AssignIp(event.args.Slot(kSlotSrcIp, argkey::kSrcIp), dgram.src.ip);
  event.args.Slot(kSlotSrcPort, argkey::kSrcPort) =
      static_cast<int64_t>(dgram.src.port);
  AssignIp(event.args.Slot(kSlotDstIp, argkey::kDstIp), dgram.dst.ip);
  event.args.Slot(kSlotDstPort, argkey::kDstPort) =
      static_cast<int64_t>(dgram.dst.port);
  event.args.Slot(kSlotFromOutside, argkey::kFromOutside) = from_outside;
}

}  // namespace

PacketProto DecideProto(std::string_view payload, sip::LazyMessage& lazy) {
  if (rtp::IsRtcp(payload)) return PacketProto::kRtcp;
  if (rtp::IsRtp(payload)) return PacketProto::kRtp;
  if (lazy.Index(payload)) return PacketProto::kSip;
  return PacketProto::kUnknown;
}

std::optional<net::Endpoint> RtcpMediaEndpoint(const net::Endpoint& dst) {
  if (dst.port < 1) return std::nullopt;
  return net::Endpoint{dst.ip, static_cast<uint16_t>(dst.port - 1)};
}

const ClassifiedPacket* PacketClassifier::Classify(const net::Datagram& dgram,
                                                   bool from_outside) {
  switch (DecideProto(dgram.payload, lazy_)) {
    case PacketProto::kRtcp:
      return ClassifyRtcp(dgram, from_outside);
    case PacketProto::kRtp:
      return ClassifyRtp(dgram, from_outside);
    case PacketProto::kSip:
      return ClassifySip(dgram, from_outside);
    case PacketProto::kUnknown:
      break;
  }
  return nullptr;
}

const ClassifiedPacket* PacketClassifier::ClassifyRtcp(
    const net::Datagram& dgram, bool from_outside) {
  const auto packet = rtp::ParseRtcp(dgram.payload);
  if (!packet) return nullptr;
  ClassifiedPacket& out = rtcp_scratch_;
  out.proto = PacketProto::kRtcp;
  out.src = dgram.src;
  out.dst = dgram.dst;
  efsm::Event& event = out.event;
  event.name.assign(kRtcpEvent);
  PutEndpoints(event, dgram, from_outside);
  // Slot references are re-fetched at each use — first-packet appends can
  // reallocate the argument storage (see the note in ClassifySip).
  AssignAbsent(event.args.Slot(kSlotProtoFirst, argkey::kPacketCount));
  const auto kind = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 1, argkey::kKind);
  };
  const auto ssrc = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 2, argkey::kSsrc);
  };
  switch (packet->type()) {
    case rtp::RtcpType::kSenderReport:
      AssignStr(kind(), "SR");
      ssrc() = static_cast<int64_t>(packet->sr->sender_ssrc);
      event.args.Slot(kSlotProtoFirst, argkey::kPacketCount) =
          static_cast<int64_t>(packet->sr->packet_count);
      break;
    case rtp::RtcpType::kReceiverReport:
      AssignStr(kind(), "RR");
      ssrc() = static_cast<int64_t>(packet->rr->sender_ssrc);
      break;
    case rtp::RtcpType::kBye:
      AssignStr(kind(), "BYE");
      ssrc() = static_cast<int64_t>(
          packet->bye->ssrcs.empty() ? 0 : packet->bye->ssrcs.front());
      break;
  }
  return &out;
}

const ClassifiedPacket* PacketClassifier::ClassifySip(
    const net::Datagram& dgram, bool from_outside) {
  // lazy_ has already indexed the payload; decode only what the predicates
  // read, straight from the memoized views, into the reused scratch packet.
  ClassifiedPacket& out = sip_scratch_;
  out.proto = PacketProto::kSip;
  out.src = dgram.src;
  out.dst = dgram.dst;
  out.call_key.clear();
  out.dest_key.clear();
  efsm::Event& event = out.event;
  event.name.assign(kSipEvent);
  PutEndpoints(event, dgram, from_outside);

  AssignStr(event.args.Slot(kSlotProtoFirst, argkey::kKind),
            lazy_.IsRequest() ? "request" : "response");
  AssignStr(event.args.Slot(kSlotProtoFirst + 1, argkey::kMethod),
            sip::MethodName(lazy_.method()));
  event.args.Slot(kSlotProtoFirst + 2, argkey::kStatus) =
      static_cast<int64_t>(lazy_.status());
  efsm::Value& call_id_slot =
      event.args.Slot(kSlotProtoFirst + 3, argkey::kCallId);
  if (const auto call_id = lazy_.CallId()) {
    out.call_key.assign(*call_id);
    AssignStr(call_id_slot, *call_id);
  } else {
    AssignAbsent(call_id_slot);
  }
  efsm::Value& cseq_slot = event.args.Slot(kSlotProtoFirst + 4, argkey::kCseq);
  if (const auto* cseq = lazy_.Cseq()) {
    cseq_slot = static_cast<int64_t>(cseq->number);
  } else {
    AssignAbsent(cseq_slot);
  }
  // NB: a slot reference is used immediately and never held across another
  // Slot call — the first packet appends entries, which can reallocate the
  // argument storage and invalidate earlier references.
  const sip::NameAddrView* from = lazy_.From();
  const auto from_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 5, argkey::kFrom);
  };
  const auto from_tag_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 6, argkey::kFromTag);
  };
  if (from != nullptr) {
    AssignUserAtHost(from_slot(), from->uri);
    if (const auto tag = from->Tag()) {
      AssignStr(from_tag_slot(), *tag);
    } else {
      AssignAbsent(from_tag_slot());
    }
  } else {
    AssignAbsent(from_slot());
    AssignAbsent(from_tag_slot());
  }
  const sip::NameAddrView* to = lazy_.To();
  const auto to_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 7, argkey::kTo);
  };
  const auto to_tag_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 8, argkey::kToTag);
  };
  if (to != nullptr) {
    AssignUserAtHost(to_slot(), to->uri);
    if (const auto tag = to->Tag()) {
      AssignStr(to_tag_slot(), *tag);
    } else {
      AssignAbsent(to_tag_slot());
    }
  } else {
    AssignAbsent(to_slot());
    AssignAbsent(to_tag_slot());
  }
  efsm::Value& branch_slot =
      event.args.Slot(kSlotProtoFirst + 9, argkey::kBranch);
  if (const auto* via = lazy_.TopVia()) {
    AssignStr(branch_slot, via->branch);
  } else {
    AssignAbsent(branch_slot);
  }
  if (lazy_.IsRequest() && to != nullptr) {
    out.dest_key.assign(to->uri.user);
    out.dest_key.push_back('@');
    out.dest_key.append(to->uri.host);
  }

  // SDP media parameters — the values the SIP machine exports to the RTP
  // machine through global variables.
  const auto sdp_ip_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 10, argkey::kSdpIp);
  };
  const auto sdp_port_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 11, argkey::kSdpPort);
  };
  const auto sdp_codec_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 12, argkey::kSdpCodec);
  };
  const auto sdp_pt_slot = [&event]() -> efsm::Value& {
    return event.args.Slot(kSlotProtoFirst + 13, argkey::kSdpPt);
  };
  bool has_media = false;
  if (!lazy_.body().empty()) {
    if (const auto probe = sdp::ProbeAudio(lazy_.body());
        probe && probe->has_endpoint) {
      has_media = true;
      AssignIp(sdp_ip_slot(), probe->endpoint.ip);
      sdp_port_slot() = static_cast<int64_t>(probe->endpoint.port);
      AssignStr(sdp_codec_slot(), probe->codec);
      if (probe->has_first_pt) {
        sdp_pt_slot() = static_cast<int64_t>(probe->first_pt);
      } else {
        AssignAbsent(sdp_pt_slot());
      }
    }
  }
  if (!has_media) {
    AssignAbsent(sdp_ip_slot());
    AssignAbsent(sdp_port_slot());
    AssignAbsent(sdp_codec_slot());
    AssignAbsent(sdp_pt_slot());
  }
  // User-Agent — the behavior layer's endpoint-identity diversity signal
  // (DESIGN.md §16). Last slot so the pinned positional order above is
  // untouched.
  efsm::Value& ua_slot =
      event.args.Slot(kSlotProtoFirst + 14, argkey::kUserAgent);
  if (const auto ua = lazy_.Header(sip::HeaderId::kUserAgent)) {
    AssignStr(ua_slot, *ua);
  } else {
    AssignAbsent(ua_slot);
  }
  return &out;
}

const ClassifiedPacket* PacketClassifier::ClassifyRtp(
    const net::Datagram& dgram, bool from_outside) {
  const auto header = rtp::RtpHeader::Parse(dgram.payload);
  if (!header) return nullptr;
  ClassifiedPacket& out = rtp_scratch_;
  out.proto = PacketProto::kRtp;
  out.src = dgram.src;
  out.dst = dgram.dst;
  efsm::Event& event = out.event;
  event.name.assign(kRtpEvent);
  PutEndpoints(event, dgram, from_outside);
  event.args.Slot(kSlotProtoFirst, argkey::kSsrc) =
      static_cast<int64_t>(header->ssrc);
  event.args.Slot(kSlotProtoFirst + 1, argkey::kSeq) =
      static_cast<int64_t>(header->sequence_number);
  event.args.Slot(kSlotProtoFirst + 2, argkey::kTs) =
      static_cast<int64_t>(header->timestamp);
  event.args.Slot(kSlotProtoFirst + 3, argkey::kPt) =
      static_cast<int64_t>(header->payload_type);
  event.args.Slot(kSlotProtoFirst + 4, argkey::kMarker) = header->marker;
  return &out;
}

}  // namespace vids::ids
