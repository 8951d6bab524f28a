#include "baseline/rule_ids.h"

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"

namespace vids::baseline {

void RuleIds::Inspect(const net::Datagram& dgram, bool, sim::Time now) {
  Sweep(now);
  // The IDS's dispatch order, by the same rtp:: predicates.
  if (rtp::IsRtcp(dgram.payload)) return;  // no RTCP rules
  if (rtp::IsRtp(dgram.payload)) {
    InspectRtp(dgram, now);
  } else if (const auto message = sip::Message::Parse(dgram.payload)) {
    InspectSip(*message, dgram, now);
  }
}

void RuleIds::InspectSip(const sip::Message& message,
                         const net::Datagram& dgram, sim::Time now) {
  const auto call_id_hdr = message.CallId();
  if (!call_id_hdr) return;
  SessionState& session = sessions_[std::string(*call_id_hdr)];
  session.call_id = std::string(*call_id_hdr);
  session.last_event_at = now;

  const auto note_media = [&](std::optional<net::Endpoint>& slot) {
    if (const auto sd = sdp::SessionDescription::Parse(message.body())) {
      if (const auto ep = sd->AudioEndpoint()) {
        slot = *ep;
        media_to_call_[*ep] = session.call_id;
      }
    }
  };

  if (message.IsRequest()) {
    switch (message.method()) {
      case sip::Method::kInvite:
        if (!session.invite_seen) {
          session.invite_seen = true;
          session.invite_src = dgram.src.ip;
          note_media(session.offer_media);
          // --- rule: invite-rate (per destination AOR) ---
          if (const auto to = message.To()) {
            RateWindow& window = invite_rates_[to->uri.UserAtHost()];
            if (window.count == 0 ||
                now - window.start > config_.invite_window) {
              window = RateWindow{now, 0, false};
            }
            ++window.count;
            if (window.count > config_.invite_threshold && !window.alerted) {
              window.alerted = true;
              Raise(now, "invite-rate", session.call_id,
                    "dest=" + to->uri.UserAtHost());
            }
          }
        }
        break;
      case sip::Method::kBye:
        if (!session.bye_at) {
          session.bye_at = now;
          session.bye_src = dgram.src.ip;
        }
        break;
      case sip::Method::kCancel:
        // --- rule: cancel-source-mismatch ---
        if (session.invite_seen && !session.established &&
            dgram.src.ip != session.invite_src) {
          Raise(now, "cancel-source-mismatch", session.call_id,
                "cancel from " + dgram.src.ip.ToString());
        }
        break;
      default:
        break;
    }
    return;
  }
  if (message.status() >= 200 && message.status() < 300 &&
      message.method() == sip::Method::kInvite) {
    session.established = true;
    note_media(session.answer_media);
  }
}

void RuleIds::InspectRtp(const net::Datagram& dgram, sim::Time now) {
  const auto it = media_to_call_.find(dgram.dst);
  if (it == media_to_call_.end()) return;  // no rule about orphan media
  const auto session_it = sessions_.find(it->second);
  if (session_it == sessions_.end()) return;
  SessionState& session = session_it->second;
  session.last_event_at = now;
  ++session.rtp_packets;
  session.last_rtp_at = now;
  // --- rule: rtp-after-bye (the cross-protocol rule SCIDIVE is built
  // around: signaling says over, media says not) ---
  if (session.bye_at && now - *session.bye_at > config_.bye_grace) {
    ++session.rtp_after_bye;
    Raise(now, "rtp-after-bye", session.call_id,
          "src=" + dgram.src.ip.ToString());
  }
}

void RuleIds::Raise(sim::Time now, std::string rule,
                    const std::string& call_id, std::string detail) {
  const std::string key = rule + "|" + call_id;
  const auto it = recent_.find(key);
  if (it != recent_.end() && now - it->second < sim::Duration::Seconds(1)) {
    return;
  }
  recent_[key] = now;
  alerts_.push_back(RuleAlert{now, std::move(rule), call_id,
                              std::move(detail)});
}

void RuleIds::Sweep(sim::Time now) {
  if (sessions_.size() < 1024) return;  // cheap bound; exactness irrelevant
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_event_at > config_.session_idle_timeout) {
      std::erase_if(media_to_call_, [&](const auto& kv) {
        return kv.second == it->first;
      });
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t RuleIds::CountAlerts(std::string_view rule) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.rule == rule) ++count;
  }
  return count;
}

}  // namespace vids::baseline
