#include "capture/corpus.h"

#include <optional>

#include "capture/pcap.h"
#include "net/datagram.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"

namespace vids::capture::corpus {

namespace {

// Topology mirrors the soak harness: proxy A / caller side on 10.1.0.0/16
// (outside the protected perimeter), proxy B / callee side on 10.2.0.0/16
// (inside), attacker on 10.9.0.66.
const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kAttacker{net::IpAddress(10, 9, 0, 66), 5060};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  dgram.kind = net::PayloadKind::kSip;
  return dgram;
}

net::Datagram RawDgram(std::string payload, net::Endpoint src,
                       net::Endpoint dst, uint32_t padding = 0) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = std::move(payload);
  dgram.kind = net::PayloadKind::kOther;
  dgram.padding_bytes = padding;
  return dgram;
}

net::Datagram RtpDgram(uint32_t ssrc, uint16_t seq, uint32_t ts, bool marker,
                       net::Endpoint src, net::Endpoint dst,
                       uint8_t payload_type = 18) {  // G.729, the testbed codec
  rtp::RtpHeader header;
  header.ssrc = ssrc;
  header.sequence_number = seq;
  header.timestamp = ts;
  header.marker = marker;
  header.payload_type = payload_type;
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  dgram.kind = net::PayloadKind::kRtp;
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id,
                        const std::string& callee_user,
                        net::Endpoint caller_media,
                        const std::string& caller_user = "alice",
                        const std::string& user_agent = {}) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite,
      *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:" + caller_user + "@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  if (!user_agent.empty()) invite.SetHeader("User-Agent", user_agent);
  invite.SetBody(sdp::MakeAudioOffer(caller_media).Serialize(),
                 "application/sdp");
  return invite;
}

sip::Message MakeResponse(const sip::Message& request, int status,
                          std::optional<net::Endpoint> answer_media) {
  auto response = sip::Message::MakeResponse(status);
  for (const auto via : request.Headers("Via")) {
    response.AddHeader("Via", via);
  }
  response.SetFrom(*request.From());
  auto to = *request.To();
  to.SetTag("tag-callee");
  response.SetTo(to);
  response.SetCallId(std::string(*request.CallId()));
  response.SetCseq(*request.Cseq());
  if (answer_media) {
    response.SetBody(sdp::MakeAudioOffer(*answer_media).Serialize(),
                     "application/sdp");
  }
  return response;
}

sip::Message MakeInDialog(sip::Method method, const std::string& call_id,
                          uint32_t cseq, const std::string& callee_user,
                          const std::string& caller_user = "alice") {
  auto request = sip::Message::MakeRequest(
      method, *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + std::string(sip::MethodName(method)) + call_id;
  request.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:" + caller_user + "@a.example.com");
  from.SetTag("tag-" + call_id);
  request.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com");
  to.SetTag("tag-callee");
  request.SetTo(to);
  request.SetCallId(call_id);
  request.SetCseq(sip::CSeq{cseq, method});
  return request;
}

/// Where a call's SDP bodies put the connection address.
enum class SdpConnection {
  kSession,      ///< session-level c= only (sdp::MakeAudioOffer)
  kMedia,        ///< c= only after m=audio
  kMediaDecoy,   ///< c= after m=audio, plus a session-level c= naming a
                 ///< host no media uses
};

/// `media_ep`'s audio offer with the connection address placed as `where`
/// says. A media-level c= overrides the session-level one (RFC 4566).
std::string AudioSdp(net::Endpoint media_ep, SdpConnection where) {
  auto sd = sdp::MakeAudioOffer(media_ep);
  if (where != SdpConnection::kSession) {
    sd.media.front().connection = media_ep.ip;
    sd.connection.reset();
    if (where == SdpConnection::kMediaDecoy) {
      sd.connection = net::IpAddress(192, 0, 2, 1);
    }
  }
  return sd.Serialize();
}

/// One complete clean call starting at `t0`: INVITE/180/200/ACK, `rtp_each`
/// RTP packets each way at 20 ms spacing, then BYE/200. With `marked_pt` >=
/// 0, one more caller→callee RTP packet follows the media, marker bit set,
/// with that payload type. `sdp` shapes the offer's and the answer's SDP.
void AddCleanCall(PcapWriter& writer, sim::Time t0, int index,
                  int rtp_each = 8, int marked_pt = -1,
                  SdpConnection sdp = SdpConnection::kSession) {
  const std::string call_id = "clean-" + std::to_string(index);
  const std::string callee = "bob" + std::to_string(index);
  const net::Endpoint caller_media{
      net::IpAddress(10, 1, 0, static_cast<uint8_t>(10 + index)),
      static_cast<uint16_t>(4000 + 2 * index)};
  const net::Endpoint callee_media{
      net::IpAddress(10, 2, 0, static_cast<uint8_t>(10 + index)),
      static_cast<uint16_t>(5000 + 2 * index)};
  const auto ms = [&](int64_t m) { return t0 + sim::Duration::Millis(m); };

  auto invite = MakeInvite(call_id, callee, caller_media);
  auto ok = MakeResponse(invite, 200, callee_media);
  if (sdp != SdpConnection::kSession) {
    invite.SetBody(AudioSdp(caller_media, sdp), "application/sdp");
    ok.SetBody(AudioSdp(callee_media, sdp), "application/sdp");
  }
  writer.Add(ms(0), SipDgram(invite, kProxyA, kProxyB));
  writer.Add(ms(20), SipDgram(MakeResponse(invite, 180, std::nullopt),
                              kProxyB, kProxyA));
  writer.Add(ms(60), SipDgram(ok, kProxyB, kProxyA));
  writer.Add(ms(80),
             SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, callee),
                      kProxyA, kProxyB));
  const auto ssrc = static_cast<uint32_t>(0x1000 + 2 * index);
  for (int k = 0; k < rtp_each; ++k) {
    const auto seq = static_cast<uint16_t>(k + 1);
    const auto ts_units = 160u * static_cast<uint32_t>(k + 1);
    writer.Add(ms(100 + 20 * k), RtpDgram(ssrc, seq, ts_units, k == 0,
                                          caller_media, callee_media));
    writer.Add(ms(110 + 20 * k), RtpDgram(ssrc + 1, seq, ts_units, k == 0,
                                          callee_media, caller_media));
  }
  if (marked_pt >= 0) {
    const auto seq = static_cast<uint16_t>(rtp_each + 1);
    writer.Add(ms(100 + 20 * rtp_each),
               RtpDgram(ssrc, seq, 160u * seq, /*marker=*/true, caller_media,
                        callee_media, static_cast<uint8_t>(marked_pt)));
  }
  const auto bye = MakeInDialog(sip::Method::kBye, call_id, 2, callee);
  writer.Add(ms(400), SipDgram(bye, caller_media, callee_media));
  writer.Add(ms(420), SipDgram(MakeResponse(bye, 200, std::nullopt),
                               callee_media, caller_media));
}

std::string BuildCleanCalls() {
  PcapWriter writer;  // little-endian, nanosecond magic
  for (int i = 0; i < 4; ++i) {
    AddCleanCall(writer, sim::Time::FromNanos(0) +
                             sim::Duration::Millis(500 * i), i);
  }
  return writer.bytes();
}

std::string BuildInviteFlood() {
  // Big-endian, microsecond magic: the flood corpus doubles as the
  // byte-swapped reader's CI coverage.
  PcapWriteOptions options;
  options.big_endian = true;
  options.nanosecond = false;
  PcapWriter writer(options);
  AddCleanCall(writer, sim::Time::FromNanos(0), 0);
  AddCleanCall(writer, sim::Time::FromNanos(0) + sim::Duration::Millis(200),
               1);
  // 8 INVITEs to one AOR inside one second — past the threshold-5/1 s
  // window (config.h), so the aggregate path must raise the flood alert
  // (deduped to exactly one).
  const sim::Time burst = sim::Time::FromNanos(0) + sim::Duration::Seconds(2);
  for (int i = 0; i < 8; ++i) {
    const auto invite =
        MakeInvite("flood-" + std::to_string(i), "victim",
                   net::Endpoint{net::IpAddress(10, 9, 0, 66),
                                 static_cast<uint16_t>(41000 + i)});
    writer.Add(burst + sim::Duration::Millis(50 * i),
               SipDgram(invite, kAttacker, kProxyB));
  }
  return writer.bytes();
}

std::string BuildTornTruncated() {
  // VLAN-tagged frames: the 802.1Q skip path rides through every CI replay.
  PcapWriteOptions options;
  options.vlan = true;
  PcapWriter writer(options);
  const auto at = [](int64_t m) {
    return sim::Time::FromNanos(0) + sim::Duration::Millis(m);
  };

  // A clean call to prove good traffic still classifies among the noise.
  AddCleanCall(writer, at(0), 0, /*rtp_each=*/4);

  // Snaplen-torn INVITE: 100 captured bytes, the rest claimed by the
  // headers but absent (orig_len - incl_len) — cut mid-header.
  const std::string full_invite =
      MakeInvite("torn-1", "bob", net::Endpoint{net::IpAddress(10, 9, 0, 66),
                                                42000})
          .Serialize();
  writer.Add(at(600),
             RawDgram(full_invite.substr(0, 100), kAttacker, kProxyB,
                      static_cast<uint32_t>(full_invite.size() - 100)));

  // Content-Length far past the end of the buffer: must fail closed.
  writer.Add(at(610),
             RawDgram("INVITE sip:bob@b.example.com SIP/2.0\r\n"
                      "Via: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bKcl\r\n"
                      "Call-ID: overrun-1\r\n"
                      "CSeq: 1 INVITE\r\n"
                      "Content-Length: 9999\r\n"
                      "\r\n"
                      "short",
                      kAttacker, kProxyB));

  // LF-only framing whose binary body contains \r\n\r\n: the head must
  // split at the first blank line, not at the CRLFCRLF inside the body.
  writer.Add(at(620),
             RawDgram("OPTIONS sip:bob@b.example.com SIP/2.0\n"
                      "Via: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bKlf\n"
                      "Call-ID: lf-framed-1\n"
                      "CSeq: 1 OPTIONS\n"
                      "Content-Length: 8\n"
                      "\n"
                      "AB\r\n\r\nCD",
                      kAttacker, kProxyB));

  // Compact-form header as the final, unterminated line (no trailing CRLF).
  writer.Add(at(630),
             RawDgram("OPTIONS sip:bob@b.example.com SIP/2.0\r\n"
                      "v: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bKco\r\n"
                      "i:compact-1",
                      kAttacker, kProxyB));

  // Truncated RTP (8 of the 12 fixed-header bytes) and an empty payload.
  writer.Add(at(640), RawDgram(std::string("\x80\x12\x00\x01\x00\x00\x00", 8),
                               kAttacker,
                               net::Endpoint{net::IpAddress(10, 2, 0, 10),
                                             5000}));
  writer.Add(at(650), RawDgram(std::string(), kAttacker, kProxyB));

  // RTCP-shaped 4-byte runt: passes the sniff, truncated for the parser.
  writer.Add(at(660), RawDgram(std::string("\x80\xc8\x00\x06", 4), kAttacker,
                               net::Endpoint{net::IpAddress(10, 2, 0, 10),
                                             5001}));
  return writer.bytes();
}

// --------------- behavioral-attack captures (DESIGN.md §16) --------------
// Every dialog and registration below is protocol-legal — the spec
// machines run each one to a clean terminal state — so the captures must
// raise exactly one behavioral alert each and zero spec-machine alerts.

/// One complete clean scenario dialog (no media): INVITE/180/200/ACK at
/// `t0`, BYE/200 at `t0 + hold`. The caller terminates, so the behavior
/// profile records the call duration.
void AddScenarioCall(PcapWriter& writer, sim::Time t0,
                     const std::string& caller, const std::string& callee,
                     const std::string& call_id, const std::string& ua,
                     int index, sim::Duration hold) {
  const net::Endpoint caller_media{
      kAttacker.ip, static_cast<uint16_t>(43000 + 2 * index)};
  const net::Endpoint callee_media{
      net::IpAddress(10, 2, 0, 10), static_cast<uint16_t>(43001 + 2 * index)};
  const auto ms = [&](int64_t m) { return t0 + sim::Duration::Millis(m); };
  const auto invite = MakeInvite(call_id, callee, caller_media, caller, ua);
  writer.Add(ms(0), SipDgram(invite, kAttacker, kProxyB));
  writer.Add(ms(20), SipDgram(MakeResponse(invite, 180, std::nullopt),
                              kProxyB, kAttacker));
  writer.Add(ms(40), SipDgram(MakeResponse(invite, 200, callee_media),
                              kProxyB, kAttacker));
  writer.Add(ms(60),
             SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, callee,
                                   caller),
                      kAttacker, kProxyB));
  const auto bye =
      MakeInDialog(sip::Method::kBye, call_id, 2, callee, caller);
  writer.Add(t0 + hold, SipDgram(bye, kAttacker, kProxyB));
  writer.Add(t0 + hold + sim::Duration::Millis(20),
             SipDgram(MakeResponse(bye, 200, std::nullopt), kProxyB,
                      kAttacker));
}

std::string BuildSpitBurst() {
  // 20 short clean calls from one caller at 150 ms spacing: the 10 s
  // call-rate window crosses threshold 15 at call 16 and the weighted
  // score crosses alert_score at call 18 (400 milli-units per call over);
  // the cooldown then holds the alert count at exactly one.
  PcapWriter writer;  // little-endian, nanosecond magic
  const sim::Time t0 = sim::Time::FromNanos(0);
  for (int k = 0; k < 20; ++k) {
    AddScenarioCall(writer, t0 + sim::Duration::Millis(150) * k, "spitter",
                    "spit-victim-" + std::to_string(k),
                    "spit-" + std::to_string(k), "spitware/1.0", k,
                    sim::Duration::Seconds(1));
  }
  return writer.bytes();
}

std::string BuildRegCracking() {
  // 14 REGISTER/401 exchanges against one account, each attempt from a
  // different source address at 300 ms spacing. The failed-auth streak
  // (threshold 8) and the distinct-source spread (threshold 4) cross the
  // alert score together at attempt 10; cooldown dedups the rest.
  PcapWriter writer;
  const sim::Time t0 = sim::Time::FromNanos(0);
  for (int k = 0; k < 14; ++k) {
    const std::string call_id = "crack-" + std::to_string(k);
    const net::Endpoint source{
        net::IpAddress(10, 9, 100, static_cast<uint8_t>(1 + k)), 5060};
    auto reg = sip::Message::MakeRequest(
        sip::Method::kRegister, *sip::SipUri::Parse("sip:b.example.com"));
    sip::Via via;
    via.sent_by = source;
    via.branch = "z9hG4bKreg" + call_id;
    reg.PushVia(via);
    sip::NameAddr aor;
    aor.uri = *sip::SipUri::Parse("sip:reg-victim@b.example.com");
    auto from = aor;
    from.SetTag("tag-" + call_id);
    reg.SetFrom(from);
    reg.SetTo(aor);
    reg.SetCallId(call_id);
    reg.SetCseq(sip::CSeq{1, sip::Method::kRegister});
    const sim::Time t = t0 + sim::Duration::Millis(300) * k;
    writer.Add(t, SipDgram(reg, source, kProxyB));
    writer.Add(t + sim::Duration::Millis(20),
               SipDgram(MakeResponse(reg, 401, std::nullopt), kProxyB,
                        source));
  }
  return writer.bytes();
}

std::string BuildTollFraud() {
  // 24 clean calls to distinct premium AORs at 2 s spacing with 5 s holds:
  // every short-window rate stays far under threshold; only the 60 s
  // destination fan-out window (threshold 16) accumulates, crossing the
  // alert score at call 23. Low and slow — the call pattern a spec machine
  // cannot distinguish from business traffic.
  PcapWriter writer;
  const sim::Time t0 = sim::Time::FromNanos(0);
  for (int k = 0; k < 24; ++k) {
    AddScenarioCall(writer, t0 + sim::Duration::Seconds(2) * k, "fraudster",
                    "premium-" + std::to_string(k),
                    "fraud-" + std::to_string(k), "fraudster-phone/2.1",
                    100 + k, sim::Duration::Seconds(5));
  }
  return writer.bytes();
}

std::string BuildRtcpLookalike() {
  // Clean calls whose callee-bound media carries one RTP packet with the
  // marker bit set and payload type 72..76: its second byte reads 200..204,
  // RTCP's packet-type range, but ParseRtcp rejects it. It is RTP on a
  // negotiated endpoint, so the call's RTP machine must see it — in every
  // engine, whichever shard owns the call. The non-negotiated payload type
  // sends that machine into its encoding-violation state.
  PcapWriter writer;  // little-endian, nanosecond magic
  for (int i = 0; i < 4; ++i) {
    AddCleanCall(writer,
                 sim::Time::FromNanos(0) + sim::Duration::Millis(500 * i), i,
                 /*rtp_each=*/4, /*marked_pt=*/72 + i);
  }
  return writer.bytes();
}

std::string BuildMediaLevelSdp() {
  // Clean calls whose offer and answer carry c= only after m=audio (odd
  // calls add a session-level decoy c=), each ending with one PCMU packet
  // (payload type 0, not negotiated) on the negotiated endpoint. The
  // media-level address is the endpoint, so the sharded router must send
  // the media to the call's shard, where the RTP machine raises the
  // encoding violation.
  PcapWriter writer;  // little-endian, nanosecond magic
  for (int i = 0; i < 8; ++i) {
    AddCleanCall(writer,
                 sim::Time::FromNanos(0) + sim::Duration::Millis(500 * i), i,
                 /*rtp_each=*/4, /*marked_pt=*/0,
                 i % 2 == 0 ? SdpConnection::kMedia
                            : SdpConnection::kMediaDecoy);
  }
  return writer.bytes();
}

}  // namespace

std::vector<CorpusFile> BuildAll() {
  return {
      {"clean_calls.pcap", BuildCleanCalls()},
      {"invite_flood.pcap", BuildInviteFlood()},
      {"torn_truncated.pcap", BuildTornTruncated()},
      {"spit_burst.pcap", BuildSpitBurst()},
      {"reg_cracking.pcap", BuildRegCracking()},
      {"toll_fraud.pcap", BuildTollFraud()},
      {"rtcp_lookalike.pcap", BuildRtcpLookalike()},
      {"media_level_sdp.pcap", BuildMediaLevelSdp()},
  };
}

net::Subnet InsideSubnet() {
  return net::Subnet(net::IpAddress(10, 2, 0, 0), 16);
}

}  // namespace vids::capture::corpus
