#include "attacks/eavesdropper.h"

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"

namespace vids::attacks {

void Eavesdropper::Feed(const net::Datagram& dgram, bool) {
  if (rtp::IsRtcp(dgram.payload)) return;  // reports carry nothing to steal
  if (rtp::IsRtp(dgram.payload)) {
    FeedRtp(dgram);
  } else {
    FeedSip(dgram);
  }
}

void Eavesdropper::FeedSip(const net::Datagram& dgram) {
  const auto message = sip::Message::Parse(dgram.payload);
  if (!message) return;
  const auto call_id = message->CallId();
  if (!call_id) return;
  CallSnapshot& snap = calls_[std::string(*call_id)];
  snap.call_id = std::string(*call_id);

  if (message->IsRequest() && message->method() == sip::Method::kInvite) {
    if (const auto from = message->From()) {
      snap.caller_aor = from->uri;
      snap.caller_tag = from->Tag().value_or("");
    }
    if (const auto to = message->To()) snap.callee_aor = to->uri;
    snap.invite_source = dgram.src;
    if (const auto via = message->TopVia()) {
      snap.invite_branch = via->branch;
      snap.invite_via_sentby = via->sent_by;
    }
    if (const auto cseq = message->Cseq()) snap.invite_cseq = cseq->number;
    if (const auto contact = message->ContactHeader()) {
      if (const auto ip = net::IpAddress::Parse(contact->uri.host)) {
        const uint16_t port =
            contact->uri.port != 0 ? contact->uri.port : uint16_t{5060};
        snap.caller_contact = net::Endpoint{*ip, port};
      }
    }
    if (const auto sd = sdp::SessionDescription::Parse(message->body())) {
      if (const auto ep = sd->AudioEndpoint()) {
        snap.caller_media = *ep;
        media_to_call_[*ep] = snap.call_id;
      }
      if (!sd->media.empty() && !sd->media.front().payload_types.empty()) {
        snap.payload_type = sd->media.front().payload_types.front();
      }
    }
    return;
  }

  if (message->IsResponse() && message->method() == sip::Method::kInvite &&
      message->status() >= 200 && message->status() < 300) {
    if (const auto to = message->To()) {
      snap.callee_tag = to->Tag().value_or("");
    }
    if (const auto contact = message->ContactHeader()) {
      if (const auto ip = net::IpAddress::Parse(contact->uri.host)) {
        const uint16_t port =
            contact->uri.port != 0 ? contact->uri.port : uint16_t{5060};
        snap.callee_contact = net::Endpoint{*ip, port};
      }
    }
    if (const auto sd = sdp::SessionDescription::Parse(message->body())) {
      if (const auto ep = sd->AudioEndpoint()) {
        snap.callee_media = *ep;
        media_to_call_[*ep] = snap.call_id;
      }
    }
    if (!snap.answered) {
      snap.answered = true;
      latest_answered_ = snap.call_id;
      if (on_answered_) on_answered_(snap);
    }
    return;
  }

  if (message->IsResponse() && message->method() == sip::Method::kBye &&
      message->status() >= 200) {
    snap.closed = true;
    if (latest_answered_ == snap.call_id) latest_answered_.clear();
  }
}

void Eavesdropper::FeedRtp(const net::Datagram& dgram) {
  const auto header = rtp::RtpHeader::Parse(dgram.payload);
  if (!header) return;
  const auto it = media_to_call_.find(dgram.dst);
  if (it == media_to_call_.end()) return;
  const auto call_it = calls_.find(it->second);
  if (call_it == calls_.end()) return;
  CallSnapshot& snap = call_it->second;
  // Track only the stream toward the callee — the direction the media
  // spamming attack plays into the victim phone.
  if (snap.callee_media && dgram.dst == *snap.callee_media) {
    snap.ssrc_toward_callee = header->ssrc;
    snap.last_seq_toward_callee = header->sequence_number;
    snap.last_ts_toward_callee = header->timestamp;
    snap.media_seen = true;
  }
}

std::optional<CallSnapshot> Eavesdropper::Get(const std::string& call_id) const {
  const auto it = calls_.find(call_id);
  if (it == calls_.end()) return std::nullopt;
  return it->second;
}

std::optional<CallSnapshot> Eavesdropper::LatestAnswered() const {
  if (latest_answered_.empty()) return std::nullopt;
  return Get(latest_answered_);
}

}  // namespace vids::attacks
