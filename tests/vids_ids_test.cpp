// Tests of the composed vIDS (classifier → distributor → fact base →
// analysis engine) driven with hand-crafted datagrams.
#include <gtest/gtest.h>

#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"

namespace vids::ids {
namespace {

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  return dgram;
}

net::Datagram RtpDgram(uint32_t ssrc, uint16_t seq, uint32_t ts,
                       net::Endpoint src, net::Endpoint dst, uint8_t pt = 18) {
  rtp::RtpHeader header;
  header.ssrc = ssrc;
  header.sequence_number = seq;
  header.timestamp = ts;
  header.payload_type = pt;
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  return dgram;
}

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kCallerMedia{net::IpAddress(10, 1, 0, 10), 20000};
const net::Endpoint kCalleeMedia{net::IpAddress(10, 2, 0, 10), 30000};
const net::Endpoint kAttacker{net::IpAddress(10, 9, 0, 66), 5060};

class IdsFixture : public ::testing::Test {
 protected:
  explicit IdsFixture(DetectionConfig detection = {})
      : vids_(scheduler_, detection) {}

  sip::Message MakeInvite(const std::string& call_id,
                          const std::string& callee = "bob") {
    const std::string aor = "sip:" + callee + "@b.example.com";
    auto invite = sip::Message::MakeRequest(sip::Method::kInvite,
                                            *sip::SipUri::Parse(aor));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bK" + call_id;
    invite.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    invite.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse(aor);
    invite.SetTo(to);
    invite.SetCallId(call_id);
    invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
    invite.SetBody(sdp::MakeAudioOffer(kCallerMedia).Serialize(),
                   "application/sdp");
    return invite;
  }

  sip::Message MakeResponse(const sip::Message& request, int status,
                            bool with_sdp) {
    auto response = sip::Message::MakeResponse(status);
    for (const auto via : request.Headers("Via")) {
      response.AddHeader("Via", via);
    }
    response.SetFrom(*request.From());
    auto to = *request.To();
    to.SetTag("tag-bob");
    response.SetTo(to);
    response.SetCallId(std::string(*request.CallId()));
    response.SetCseq(*request.Cseq());
    if (with_sdp) {
      response.SetBody(sdp::MakeAudioOffer(kCalleeMedia).Serialize(),
                       "application/sdp");
    }
    return response;
  }

  sip::Message MakeBye(const std::string& call_id) {
    auto bye = sip::Message::MakeRequest(
        sip::Method::kBye, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bKbye" + call_id;
    bye.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    bye.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    to.SetTag("tag-bob");
    bye.SetTo(to);
    bye.SetCallId(call_id);
    bye.SetCseq(sip::CSeq{2, sip::Method::kBye});
    return bye;
  }

  // Feeds a full signaling handshake for `call_id` (INVITE/180/200/ACK).
  void EstablishCall(const std::string& call_id) {
    const auto invite = MakeInvite(call_id);
    vids_.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
    vids_.Inspect(SipDgram(MakeResponse(invite, 180, false), kProxyB, kProxyA),
                  false);
    vids_.Inspect(SipDgram(MakeResponse(invite, 200, true), kProxyB, kProxyA),
                  false);
    auto ack = sip::Message::MakeRequest(
        sip::Method::kAck, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bKack" + call_id;
    ack.PushVia(via);
    ack.SetCallId(call_id);
    ack.SetCseq(sip::CSeq{1, sip::Method::kAck});
    vids_.Inspect(SipDgram(ack, kCallerMedia, kCalleeMedia), true);
  }

  size_t Attacks(std::string_view classification) {
    return vids_.CountAlerts(classification);
  }

  sim::Scheduler scheduler_;
  Vids vids_;
};

TEST_F(IdsFixture, ChargesConfiguredCostsOnTheirLanes) {
  using Lane = net::InlineTap::Lane;
  const auto invite = MakeInvite("c1");
  const auto sip = vids_.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  EXPECT_EQ(sip.cost, CostModel{}.sip_cost);
  EXPECT_EQ(sip.lane, Lane::kSignaling);
  const auto rtp =
      vids_.Inspect(RtpDgram(1, 1, 80, kCallerMedia, kCalleeMedia), true);
  EXPECT_EQ(rtp.cost, CostModel{}.rtp_cost);
  EXPECT_EQ(rtp.lane, Lane::kMedia);
  EXPECT_EQ(vids_.stats().sip_packets, 1u);
  EXPECT_EQ(vids_.stats().rtp_packets, 1u);
}

TEST_F(IdsFixture, CleanCallProducesNoAlerts) {
  EstablishCall("clean-1");
  // Both media directions, in session.
  for (int i = 0; i < 50; ++i) {
    vids_.Inspect(RtpDgram(77, static_cast<uint16_t>(i),
                           static_cast<uint32_t>(80 * i), kCallerMedia,
                           kCalleeMedia),
                  true);
    vids_.Inspect(RtpDgram(88, static_cast<uint16_t>(i),
                           static_cast<uint32_t>(80 * i), kCalleeMedia,
                           kCallerMedia),
                  false);
  }
  const auto bye = MakeBye("clean-1");
  vids_.Inspect(SipDgram(bye, kCallerMedia, kCalleeMedia), true);
  vids_.Inspect(SipDgram(MakeResponse(bye, 200, false), kCalleeMedia,
                         kCallerMedia),
                false);
  EXPECT_EQ(vids_.alerts().size(), 0u);
  EXPECT_EQ(vids_.stats().orphan_rtp, 0u);
}

TEST_F(IdsFixture, MediaIndexRoutesRtpToItsCall) {
  EstablishCall("c-media");
  EXPECT_EQ(vids_.fact_base().CallByMedia(kCalleeMedia), "c-media");
  EXPECT_EQ(vids_.fact_base().CallByMedia(kCallerMedia), "c-media");
  EXPECT_FALSE(vids_.fact_base()
                   .CallByMedia(net::Endpoint{net::IpAddress(1, 1, 1, 1), 9})
                   .has_value());
}

TEST_F(IdsFixture, ByeDosRaisesCrossProtocolAlert) {
  EstablishCall("c-byedos");
  vids_.Inspect(RtpDgram(77, 1, 80, kCallerMedia, kCalleeMedia), true);
  // Attacker (different host) sends the BYE.
  const auto bye = MakeBye("c-byedos");
  vids_.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  vids_.Inspect(
      SipDgram(MakeResponse(bye, 200, false), kCalleeMedia, kAttacker),
      false);
  // Caller keeps streaming past the grace period.
  scheduler_.RunUntil(scheduler_.Now() +
                      vids_.detection().bye_inflight_grace +
                      sim::Duration::Millis(10));
  vids_.Inspect(RtpDgram(77, 2, 160, kCallerMedia, kCalleeMedia), true);
  EXPECT_EQ(Attacks("BYE DoS"), 1u);
  EXPECT_EQ(Attacks("toll fraud"), 0u);
}

TEST_F(IdsFixture, InviteFloodAlertsPerDestination) {
  const int n = vids_.detection().invite_flood_threshold;
  for (int i = 0; i <= n; ++i) {
    vids_.Inspect(SipDgram(MakeInvite("flood-" + std::to_string(i)), kAttacker,
                           kProxyB),
                  true);
  }
  EXPECT_EQ(Attacks("INVITE flood"), 1u);
}

TEST_F(IdsFixture, MediaSpamAlertViaPerEndpointPattern) {
  EstablishCall("c-spam");
  vids_.Inspect(RtpDgram(77, 100, 8000, kCallerMedia, kCalleeMedia), true);
  vids_.Inspect(RtpDgram(77, 101, 8080, kCallerMedia, kCalleeMedia), true);
  // Attacker injects with the same SSRC far ahead.
  vids_.Inspect(RtpDgram(77, 2000, 500000,
                         net::Endpoint{kAttacker.ip, 40000}, kCalleeMedia),
                true);
  EXPECT_EQ(Attacks("media spamming"), 1u);
}

TEST_F(IdsFixture, UnsolicitedResponsesFeedDrdosCounter) {
  const auto invite = MakeInvite("nonexistent");
  for (int i = 0; i <= vids_.detection().drdos_threshold; ++i) {
    auto response = MakeResponse(invite, 200, false);
    response.SetCallId("reflection-" + std::to_string(i));
    vids_.Inspect(SipDgram(response, kProxyA, kCalleeMedia), true);
  }
  EXPECT_EQ(Attacks("DRDoS reflection"), 1u);
  // Each also deviated from the SIP spec machine.
  EXPECT_GT(vids_.CountAlerts(AlertKind::kSpecDeviation), 0u);
}

TEST_F(IdsFixture, MalformedPacketIsFlagged) {
  net::Datagram junk;
  junk.src = kAttacker;
  junk.dst = kProxyB;
  junk.payload = "complete garbage that is neither SIP nor RTP";
  const auto verdict = vids_.Inspect(junk, true);
  EXPECT_EQ(verdict.cost, CostModel{}.rtp_cost);  // rejecting junk is cheap
  EXPECT_EQ(verdict.lane, net::InlineTap::Lane::kMedia);
  EXPECT_EQ(vids_.CountAlerts(AlertKind::kMalformed), 1u);
}

TEST_F(IdsFixture, NonTokenMethodOrHeaderNameIsUnparsable) {
  // None of these first bytes is RTP's (version 2) or RTCP's, so only the
  // SIP grammar decides: each is junk, not a request of unknown method.
  const std::string payloads[] = {
      std::string("\x01NVITE sip:bob@b.example.com SIP/2.0\r\n\r\n"),
      std::string("\xC3NVITE sip:bob@b.example.com SIP/2.0\r\n\r\n"),
      std::string("\xFFNVITE sip:bob@b.example.com SIP/2.0\r\n\r\n"),
      "INVITE sip:bob@b.example.com SIP/2.0\r\nCall ID: x\r\n\r\n",
      "INVITE sip:bob@b.example.com SIP/2.0\r\nCall@ID: x\r\n\r\n",
  };
  uint16_t port = 5060;
  for (const auto& payload : payloads) {
    net::Datagram dgram;
    dgram.src = kAttacker;
    // A destination each: the classifier's alerts dedup per destination.
    dgram.dst = net::Endpoint{kProxyB.ip, port++};
    dgram.payload = payload;
    vids_.Inspect(dgram, true);
  }
  EXPECT_EQ(vids_.CountAlerts("unparsable packet"), std::size(payloads));
  EXPECT_EQ(vids_.stats().unknown_packets, std::size(payloads));
  EXPECT_EQ(vids_.stats().sip_packets, 0u);
}

TEST_F(IdsFixture, CompletedCallIsSweptAndTombstoned) {
  EstablishCall("c-done");
  const auto bye = MakeBye("c-done");
  vids_.Inspect(SipDgram(bye, kCallerMedia, kCalleeMedia), true);
  vids_.Inspect(SipDgram(MakeResponse(bye, 200, false), kCalleeMedia,
                         kCallerMedia),
                false);
  EXPECT_EQ(vids_.fact_base().call_count(), 1u);
  // Let the RTP machine linger out, then trigger a sweep with any packet.
  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().bye_inflight_grace +
                      vids_.detection().rtp_close_linger +
                      sim::Duration::Seconds(2));
  vids_.Inspect(SipDgram(MakeInvite("other"), kProxyA, kProxyB), true);
  EXPECT_EQ(vids_.fact_base().call_count(), 1u);  // only "other"
  EXPECT_TRUE(vids_.fact_base().IsTombstoned("c-done"));

  // A late retransmission of the closed call is dropped silently.
  const auto alerts_before = vids_.alerts().size();
  vids_.Inspect(SipDgram(MakeResponse(bye, 200, false), kCalleeMedia,
                         kCallerMedia),
                false);
  EXPECT_EQ(vids_.alerts().size(), alerts_before);
}

TEST_F(IdsFixture, IdleCallsAreReclaimed) {
  // An INVITE that never progresses (flood residue).
  vids_.Inspect(SipDgram(MakeInvite("stuck"), kAttacker, kProxyB), true);
  EXPECT_EQ(vids_.fact_base().call_count(), 1u);
  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().call_idle_timeout +
                      sim::Duration::Seconds(2));
  vids_.Inspect(SipDgram(MakeInvite("fresh"), kProxyA, kProxyB), true);
  EXPECT_FALSE(vids_.fact_base().FindCall("stuck") != nullptr);
}

TEST_F(IdsFixture, RepeatedAttackAlertsAreDeduplicated) {
  const int n = vids_.detection().invite_flood_threshold;
  // A sustained flood: many packets beyond the threshold within 1 s.
  for (int i = 0; i <= n + 20; ++i) {
    vids_.Inspect(SipDgram(MakeInvite("f" + std::to_string(i)), kAttacker,
                           kProxyB),
                  true);
  }
  EXPECT_EQ(Attacks("INVITE flood"), 1u);
  EXPECT_GT(vids_.stats().alerts_suppressed, 0u);
}

TEST_F(IdsFixture, PerCallMemoryIsSmallAndBounded) {
  EstablishCall("c-mem");
  const auto bytes = vids_.fact_base().CallMemoryBytes("c-mem");
  ASSERT_TRUE(bytes.has_value());
  // The paper prices a call's machines at ~490 bytes of state variables;
  // our instances carry the machinery too, but stay in the low KBs.
  EXPECT_LT(*bytes, 16 * 1024u);
  EXPECT_GT(*bytes, 100u);
}

TEST_F(IdsFixture, OrphanRtpIsCounted) {
  vids_.Inspect(RtpDgram(5, 1, 80, kAttacker, kCalleeMedia), true);
  EXPECT_EQ(vids_.stats().orphan_rtp, 1u);
}

TEST_F(IdsFixture, ExpiredTombstoneCallIdReturnsAsFreshCall) {
  // Complete a call, let it be swept and its tombstone expire, then see
  // the same Call-ID again: it must open as a brand-new, clean call.
  EstablishCall("c-reuse");
  const auto bye = MakeBye("c-reuse");
  vids_.Inspect(SipDgram(bye, kCallerMedia, kCalleeMedia), true);
  vids_.Inspect(SipDgram(MakeResponse(bye, 200, false), kCalleeMedia,
                         kCallerMedia),
                false);
  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().rtp_close_linger +
                      vids_.detection().tombstone_ttl +
                      sim::Duration::Seconds(4));
  EXPECT_FALSE(vids_.fact_base().IsTombstoned("c-reuse"));
  const auto alerts_before = vids_.alerts().size();
  EstablishCall("c-reuse");
  EXPECT_NE(vids_.fact_base().FindCall("c-reuse"), nullptr);
  EXPECT_EQ(vids_.alerts().size(), alerts_before)
      << "re-used Call-ID after tombstone expiry raised a false alert";
}

TEST_F(IdsFixture, RenegotiatedMediaEndpointSurvivesFirstCallSweep) {
  // Two calls negotiate the same media endpoint (port reuse) back to
  // back; when the first call is swept, the index entry must keep
  // routing to the second call (the sweep's ownership check).
  EstablishCall("c-old");
  EstablishCall("c-new");  // rebinds kCalleeMedia / kCallerMedia to c-new
  const auto bye = MakeBye("c-old");
  vids_.Inspect(SipDgram(bye, kCallerMedia, kCalleeMedia), true);
  vids_.Inspect(SipDgram(MakeResponse(bye, 200, false), kCalleeMedia,
                         kCallerMedia),
                false);
  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().rtp_close_linger +
                      sim::Duration::Seconds(2));
  EXPECT_EQ(vids_.fact_base().FindCall("c-old"), nullptr);
  EXPECT_EQ(vids_.fact_base().CallByMedia(kCalleeMedia), "c-new");
  // RTP at the endpoint still reaches a monitored call, not the orphan
  // counter.
  vids_.Inspect(RtpDgram(99, 1, 80, kCallerMedia, kCalleeMedia), true);
  EXPECT_EQ(vids_.stats().orphan_rtp, 0u);
}

TEST_F(IdsFixture, AlertSigsExpireWithDedupWindowAndReAlert) {
  // A deviation alert plants a dedup signature; once the window passes,
  // the periodic sweep prunes it and an identical deviation alerts again
  // instead of hitting a stale suppression entry.
  const auto bye = MakeBye("c-ghost");
  vids_.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  const auto first = vids_.alerts().size();
  ASSERT_GT(first, 0u);
  EXPECT_GT(vids_.alert_sig_count(), 0u);

  // Identical deviation inside the window: suppressed, sig table flat.
  vids_.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  EXPECT_EQ(vids_.alerts().size(), first);
  EXPECT_GT(vids_.stats().alerts_suppressed, 0u);

  // Past the window the sweep timer prunes the signature (no packets).
  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().alert_dedup_window +
                      sim::Duration::Seconds(2));
  EXPECT_EQ(vids_.alert_sig_count(), 0u);
  EXPECT_EQ(vids_.metrics().GetGauge("vids.alert_sigs").value(), 0);

  vids_.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  EXPECT_EQ(vids_.alerts().size(), first + 1)
      << "deviation after the dedup window must alert again";
}

TEST_F(IdsFixture, IdleStateDiesWithZeroPackets) {
  // Open never-completing state (an INVITE that stalls plus a flood
  // group), then go silent: the scheduler-armed sweep alone must reclaim
  // every map and the gauges must track the true cardinalities.
  vids_.Inspect(SipDgram(MakeInvite("c-stalled"), kProxyA, kProxyB), true);
  EstablishCall("c-idle");
  EXPECT_EQ(vids_.metrics().GetGauge("vids.active_calls").value(),
            static_cast<int64_t>(vids_.fact_base().call_count()));
  EXPECT_EQ(vids_.metrics().GetGauge("vids.keyed_groups").value(),
            static_cast<int64_t>(vids_.fact_base().keyed_count()));

  scheduler_.RunUntil(scheduler_.Now() + vids_.detection().call_idle_timeout +
                      vids_.detection().tombstone_ttl +
                      sim::Duration::Seconds(4));
  EXPECT_EQ(vids_.fact_base().call_count(), 0u);
  EXPECT_EQ(vids_.fact_base().keyed_count(), 0u);
  EXPECT_EQ(vids_.fact_base().tombstone_count(), 0u);
  EXPECT_EQ(vids_.fact_base().media_index_count(), 0u);
  EXPECT_EQ(vids_.alert_sig_count(), 0u);
  EXPECT_EQ(vids_.metrics().GetGauge("vids.active_calls").value(), 0);
  EXPECT_EQ(vids_.metrics().GetGauge("vids.keyed_groups").value(), 0);
  EXPECT_EQ(vids_.metrics().GetGauge("vids.media_index_size").value(), 0);
  EXPECT_EQ(vids_.metrics().GetGauge("vids.tombstones").value(), 0);
  // The sweeps that reclaimed it all examined each entry, and Vids exports
  // that count with its other metrics.
  const obs::Counter* examined =
      vids_.metrics().FindCounter("vids.sweep_examined");
  ASSERT_NE(examined, nullptr);
  EXPECT_GT(examined->value(), 0u);
}

TEST_F(IdsFixture, QuietLinkReclaimsProfilesThatOutliveTheLastCall) {
  // One failed registration. Its transaction ends on the 401, so the call
  // is reclaimed at the next sweep and its tombstone expires tombstone_ttl
  // later; the registration target's behavior profile lives for
  // IdleHorizon(), long after the fact base has drained. No packet follows:
  // the periodic sweep alone must reclaim the profile, then stop.
  auto reg = sip::Message::MakeRequest(
      sip::Method::kRegister, *sip::SipUri::Parse("sip:b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bKreg-quiet";
  reg.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@b.example.com");
  from.SetTag("tag-alice");
  reg.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:alice@b.example.com");
  reg.SetTo(to);
  reg.SetCallId("reg-quiet");
  reg.SetCseq(sip::CSeq{1, sip::Method::kRegister});
  vids_.Inspect(SipDgram(reg, kProxyA, kProxyB), true);
  vids_.Inspect(SipDgram(MakeResponse(reg, 401, false), kProxyB, kProxyA),
                false);
  ASSERT_EQ(vids_.behavior().profile_count(), 1u);

  const DetectionConfig& detection = vids_.detection();
  scheduler_.RunUntil(scheduler_.Now() + vids_.behavior().IdleHorizon() +
                      detection.tombstone_ttl + sim::Duration::Seconds(2));
  const CallStateFactBase& fb = vids_.fact_base();
  EXPECT_EQ(fb.call_count() + fb.tombstone_count() + fb.keyed_count() +
                fb.media_index_count(),
            0u);
  EXPECT_EQ(vids_.behavior().profile_count(), 0u);
  EXPECT_EQ(vids_.alert_sig_count(), 0u);
  EXPECT_EQ(scheduler_.PendingEvents(), 0u);  // the periodic sweep stopped
}

TEST_F(IdsFixture, RetainedAlertHistoryRespectsItsCap) {
  vids_.set_max_retained_alerts(4);
  for (int i = 0; i < 8; ++i) {
    // Distinct groups, so dedup never suppresses.
    const auto bye = MakeBye("c-cap-" + std::to_string(i));
    vids_.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  }
  EXPECT_LE(vids_.alerts().size(), 4u);
  EXPECT_GT(vids_.alerts().size(), 0u);
}

TEST(IdsLifecycle, ReclaimedGroupEvictsItsAlertSigInsideTheWindow) {
  // With a dedup window much longer than the idle timeout, a reclaimed
  // group's signature must die with the group — otherwise the next
  // deviation from a same-named group would be wrongly suppressed.
  DetectionConfig detection;
  detection.call_idle_timeout = sim::Duration::Seconds(5);
  detection.alert_dedup_window = sim::Duration::Seconds(600);
  sim::Scheduler scheduler;
  Vids vids(scheduler, detection);

  auto bye = sip::Message::MakeRequest(
      sip::Method::kBye, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kAttacker;
  via.branch = "z9hG4bKevict";
  bye.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("t");
  bye.SetFrom(from);
  auto to = from;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  bye.SetTo(to);
  bye.SetCallId("c-evict");
  bye.SetCseq(sip::CSeq{2, sip::Method::kBye});

  vids.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  const auto first = vids.alerts().size();
  ASSERT_GT(first, 0u);
  ASSERT_GT(vids.alert_sig_count(), 0u);

  // Idle out the group. Its signature lives out the dedup window, but the
  // next group under the same name has a serial of its own, so the
  // signature can no longer suppress anything.
  scheduler.RunUntil(scheduler.Now() + detection.call_idle_timeout +
                     detection.tombstone_ttl + sim::Duration::Seconds(4));
  ASSERT_EQ(vids.fact_base().call_count(), 0u);

  vids.Inspect(SipDgram(bye, kAttacker, kCalleeMedia), true);
  EXPECT_EQ(vids.alerts().size(), first + 1)
      << "fresh group's deviation was suppressed by a dead group's sig";

  // Once the window is over the sweeps have expired every signature.
  scheduler.RunUntil(scheduler.Now() + detection.alert_dedup_window +
                     sim::Duration::Seconds(2));
  EXPECT_EQ(vids.alert_sig_count(), 0u);
  EXPECT_EQ(vids.metrics().GetGauge("vids.alert_sigs").value(), 0);
}

// A dedup window far longer than any test step, so only which signature an
// alert finds decides whether it is suppressed.
class LongDedupFixture : public IdsFixture {
 protected:
  LongDedupFixture() : IdsFixture(LongWindow()) {}
  static DetectionConfig LongWindow() {
    DetectionConfig detection;
    detection.alert_dedup_window = sim::Duration::Seconds(60);
    return detection;
  }
  void InviteBurst(const std::string& prefix) {
    for (int i = 0; i <= vids_.detection().invite_flood_threshold; ++i) {
      vids_.Inspect(SipDgram(MakeInvite(prefix + std::to_string(i)),
                             kAttacker, kProxyB),
                    true);
    }
  }
};

TEST_F(LongDedupFixture, CallNamedLikeAFloodGroupLeavesTheFloodSuppressed) {
  // The INVITE flood to bob alerts once, from group "flood|bob@...".
  InviteBurst("burst-a-");
  ASSERT_EQ(Attacks("INVITE flood"), 1u);

  // A REGISTER transaction whose Call-ID spells that group's name
  // completes and is reclaimed while the flood's signature is live.
  const std::string twin = "flood|bob@b.example.com";
  auto reg = sip::Message::MakeRequest(
      sip::Method::kRegister, *sip::SipUri::Parse("sip:b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bKtwin";
  reg.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:carol@b.example.com");
  from.SetTag("tag-carol");
  reg.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:carol@b.example.com");
  reg.SetTo(to);
  reg.SetCallId(twin);
  reg.SetCseq(sip::CSeq{1, sip::Method::kRegister});
  vids_.Inspect(SipDgram(reg, kProxyA, kProxyB), true);
  vids_.Inspect(SipDgram(MakeResponse(reg, 200, false), kProxyB, kProxyA),
                false);
  scheduler_.RunUntil(scheduler_.Now() + sim::Duration::Seconds(2));
  ASSERT_TRUE(vids_.fact_base().IsTombstoned(twin));

  // The flood group lives on; its next burst re-enters the attack state
  // inside the window and must stay suppressed.
  const uint64_t suppressed = vids_.stats().alerts_suppressed;
  InviteBurst("burst-b-");
  EXPECT_EQ(Attacks("INVITE flood"), 1u)
      << "reclaiming a same-named call lifted the flood's suppression";
  EXPECT_GT(vids_.stats().alerts_suppressed, suppressed);
}

TEST_F(LongDedupFixture, DroppedMediaGroupsSuccessorAlertsAgain) {
  // An RTP flood at kCalleeMedia alerts once; its continuation is
  // suppressed.
  uint16_t seq = 0;
  const auto flood = [&] {
    for (int i = 0; i <= vids_.detection().rtp_flood_threshold + 10; ++i) {
      ++seq;
      vids_.Inspect(RtpDgram(0xF100D, seq, 160u * seq, kCallerMedia,
                             kCalleeMedia),
                    true);
    }
  };
  flood();
  ASSERT_EQ(Attacks("RTP flood"), 1u);
  ASSERT_GT(vids_.stats().alerts_suppressed, 0u);

  // Media ownership of the endpoint moves to another shard: the endpoint's
  // pattern group is dropped. A fresh flood there, still inside the dedup
  // window, builds a new group and is a new alert.
  vids_.fact_base().DropMediaKeyedGroup(kCalleeMedia);
  flood();
  EXPECT_EQ(Attacks("RTP flood"), 2u)
      << "the dropped group's signature suppressed its successor";
}

TEST_F(LongDedupFixture, BehaviorCooldownCoversTheDedupWindow) {
  // One caller fans 134 INVITEs out to distinct AORs, 0.3 s apart: a 40 s
  // burst over the behavior thresholds from its 18th call on. Behavior
  // alerts bypass the dedup table, so the engine's cooldown alone must
  // keep them to one per window.
  for (int k = 0; k < 134; ++k) {
    scheduler_.RunUntil(sim::Time::FromNanos(300'000'000LL * k));
    vids_.Inspect(SipDgram(MakeInvite("fan-" + std::to_string(k),
                                      "victim-" + std::to_string(k)),
                           kProxyA, kProxyB),
                  true);
  }
  EXPECT_EQ(vids_.CountAlerts(AlertKind::kBehavior), 1u)
      << "a behavior alert repeated inside the dedup window";
}

}  // namespace
}  // namespace vids::ids
