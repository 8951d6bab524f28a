#include <gtest/gtest.h>

#include "baseline/rate_ids.h"
#include "baseline/rule_ids.h"
#include "baseline/signature_ids.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"

namespace vids::baseline {
namespace {

net::Datagram Dgram(std::string payload) {
  net::Datagram dgram;
  dgram.src = net::Endpoint{net::IpAddress(10, 9, 0, 66), 5060};
  dgram.dst = net::Endpoint{net::IpAddress(10, 2, 0, 1), 5060};
  dgram.payload = std::move(payload);
  return dgram;
}

std::string ValidSip() {
  return "OPTIONS sip:x@y SIP/2.0\r\nCSeq: 1 OPTIONS\r\n"
         "Content-Length: 0\r\n\r\n";
}

TEST(SignatureIds, FlagsMalformedTraffic) {
  SignatureIds ids;
  ids.InstallDefaultRules();
  ids.Inspect(Dgram("garbage packet"), true, sim::Time{});
  ids.Inspect(Dgram(ValidSip()), true, sim::Time{});
  ids.Inspect(Dgram(rtp::RtpHeader{}.Serialize()), true, sim::Time{});
  EXPECT_EQ(ids.CountAlerts("malformed-packet"), 1u);
  EXPECT_EQ(ids.packets_inspected(), 3u);
}

TEST(SignatureIds, MatchesKnownFingerprints) {
  SignatureIds ids;
  ids.InstallDefaultRules();
  ids.Inspect(Dgram("OPTIONS sip:x@y SIP/2.0\r\nCSeq: 1 OPTIONS\r\n"
                    "User-Agent: friendly-scanner\r\nContent-Length: 0\r\n\r\n"),
              true, sim::Time{});
  EXPECT_EQ(ids.CountAlerts("scanner-user-agent"), 1u);
}

TEST(SignatureIds, SourceScopedRule) {
  SignatureIds ids;
  ids.AddRule(SignatureRule{.name = "bad-host",
                            .pattern = "",
                            .src_ip = net::IpAddress(10, 9, 0, 66),
                            .match_malformed = false});
  ids.Inspect(Dgram(ValidSip()), true, sim::Time{});
  auto other = Dgram(ValidSip());
  other.src.ip = net::IpAddress(10, 1, 0, 1);
  ids.Inspect(other, true, sim::Time{});
  EXPECT_EQ(ids.CountAlerts("bad-host"), 1u);
}

// The structural blindness the ablation bench quantifies: a spoofed BYE is
// byte-for-byte legitimate SIP, so no per-packet signature can flag it.
TEST(SignatureIds, CannotSeeSpoofedBye) {
  SignatureIds ids;
  ids.InstallDefaultRules();
  ids.Inspect(Dgram("BYE sip:bob@10.2.0.10 SIP/2.0\r\n"
                    "Via: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bK1\r\n"
                    "From: <sip:alice@a.example.com>;tag=t1\r\n"
                    "To: <sip:bob@b.example.com>;tag=t2\r\n"
                    "Call-ID: victim-call@a\r\nCSeq: 2 BYE\r\n"
                    "Content-Length: 0\r\n\r\n"),
              true, sim::Time{});
  EXPECT_TRUE(ids.alerts().empty());
}

TEST(RateIds, AlertsOnFloodOncePerWindow) {
  RateIds ids(RateIds::Config{.threshold = 10,
                              .window = sim::Duration::Seconds(1)});
  for (int i = 0; i < 50; ++i) {
    ids.Inspect(Dgram("x"), true, sim::Time{} + sim::Duration::Millis(i));
  }
  ASSERT_EQ(ids.alerts().size(), 1u);
  EXPECT_EQ(ids.alerts()[0].src, net::IpAddress(10, 9, 0, 66));
}

TEST(RateIds, LowRateNeverAlerts) {
  RateIds ids(RateIds::Config{.threshold = 10,
                              .window = sim::Duration::Seconds(1)});
  for (int i = 0; i < 100; ++i) {
    ids.Inspect(Dgram("x"), true, sim::Time{} + sim::Duration::Millis(200 * i));
  }
  EXPECT_TRUE(ids.alerts().empty());
}

// ----------------------------------------------------------- rule IDS

class RuleIdsFixture : public ::testing::Test {
 protected:
  sim::Time At(double seconds) {
    return sim::Time{} + sim::Duration::FromSeconds(seconds);
  }

  net::Datagram SipDgram(const sip::Message& message, net::IpAddress src) {
    net::Datagram dgram;
    dgram.src = net::Endpoint{src, 5060};
    dgram.dst = net::Endpoint{net::IpAddress(10, 2, 0, 1), 5060};
    dgram.payload = message.Serialize();
    return dgram;
  }

  sip::Message Invite(const std::string& call_id) {
    auto invite = sip::Message::MakeRequest(
        sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
    sip::Via via;
    via.sent_by = net::Endpoint{net::IpAddress(10, 1, 0, 1), 5060};
    via.branch = "z9hG4bK" + call_id;
    invite.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("t");
    invite.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    invite.SetTo(to);
    invite.SetCallId(call_id);
    invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
    invite.SetBody(
        sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000})
            .Serialize(),
        "application/sdp");
    return invite;
  }

  sip::Message Response(const sip::Message& request, int status,
                        bool with_sdp) {
    auto response = sip::Message::MakeResponse(status);
    response.SetCallId(std::string(*request.CallId()));
    response.SetCseq(*request.Cseq());
    if (with_sdp) {
      response.SetBody(
          sdp::MakeAudioOffer(
              net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000})
              .Serialize(),
          "application/sdp");
    }
    return response;
  }

  sip::Message Bye(const std::string& call_id) {
    auto bye = sip::Message::MakeRequest(
        sip::Method::kBye, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
    bye.SetCallId(call_id);
    bye.SetCseq(sip::CSeq{2, sip::Method::kBye});
    return bye;
  }

  net::Datagram Media(const std::string& /*call*/, uint16_t seq) {
    rtp::RtpHeader header;
    header.ssrc = 7;
    header.sequence_number = seq;
    net::Datagram dgram;
    dgram.src = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
    dgram.dst = net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000};
    dgram.payload = header.Serialize();
    return dgram;
  }

  baseline::RuleIds ids_;
};

TEST_F(RuleIdsFixture, RtpAfterByeRuleFires) {
  const auto invite = Invite("c1");
  ids_.Inspect(SipDgram(invite, net::IpAddress(10, 1, 0, 1)), true, At(0));
  ids_.Inspect(SipDgram(Response(invite, 200, true),
                        net::IpAddress(10, 2, 0, 1)),
               false, At(0.2));
  ids_.Inspect(Media("c1", 1), true, At(0.5));
  ids_.Inspect(SipDgram(Bye("c1"), net::IpAddress(10, 9, 0, 66)), true,
               At(1.0));
  // Within grace: tolerated.
  ids_.Inspect(Media("c1", 2), true, At(1.05));
  EXPECT_EQ(ids_.CountAlerts("rtp-after-bye"), 0u);
  // Past grace: the cross-protocol rule fires.
  ids_.Inspect(Media("c1", 3), true, At(1.5));
  EXPECT_EQ(ids_.CountAlerts("rtp-after-bye"), 1u);
  // Dedup: the ongoing stream doesn't alert per packet.
  ids_.Inspect(Media("c1", 4), true, At(1.6));
  EXPECT_EQ(ids_.CountAlerts("rtp-after-bye"), 1u);
}

TEST_F(RuleIdsFixture, CancelMismatchRuleFires) {
  const auto invite = Invite("c2");
  ids_.Inspect(SipDgram(invite, net::IpAddress(10, 1, 0, 1)), true, At(0));
  auto cancel = sip::Message::MakeRequest(
      sip::Method::kCancel, *sip::SipUri::Parse("sip:bob@b.example.com"));
  cancel.SetCallId("c2");
  cancel.SetCseq(sip::CSeq{1, sip::Method::kCancel});
  ids_.Inspect(SipDgram(cancel, net::IpAddress(10, 9, 0, 66)), true, At(0.2));
  EXPECT_EQ(ids_.CountAlerts("cancel-source-mismatch"), 1u);
}

TEST_F(RuleIdsFixture, InviteRateRuleFires) {
  for (int i = 0; i <= 5; ++i) {
    ids_.Inspect(SipDgram(Invite("flood-" + std::to_string(i)),
                          net::IpAddress(10, 9, 0, 66)),
                 true, At(0.01 * i));
  }
  EXPECT_EQ(ids_.CountAlerts("invite-rate"), 1u);
}

TEST_F(RuleIdsFixture, CleanCallRaisesNothing) {
  const auto invite = Invite("clean");
  ids_.Inspect(SipDgram(invite, net::IpAddress(10, 1, 0, 1)), true, At(0));
  ids_.Inspect(SipDgram(Response(invite, 200, true),
                        net::IpAddress(10, 2, 0, 1)),
               false, At(0.2));
  for (int i = 0; i < 100; ++i) {
    ids_.Inspect(Media("clean", static_cast<uint16_t>(i)), true,
                 At(0.3 + 0.01 * i));
  }
  ids_.Inspect(SipDgram(Bye("clean"), net::IpAddress(10, 1, 0, 10)), true,
               At(2.0));
  EXPECT_TRUE(ids_.alerts().empty());
}

// The structural gap the ablation bench shows: no rule, no detection —
// an in-dialog hijack INVITE is just "another INVITE" to the rule engine.
TEST_F(RuleIdsFixture, UnanticipatedAttackPassesSilently) {
  const auto invite = Invite("c3");
  ids_.Inspect(SipDgram(invite, net::IpAddress(10, 1, 0, 1)), true, At(0));
  ids_.Inspect(SipDgram(Response(invite, 200, true),
                        net::IpAddress(10, 2, 0, 1)),
               false, At(0.2));
  auto hijack = Invite("c3");  // same Call-ID, alien source
  ids_.Inspect(SipDgram(hijack, net::IpAddress(10, 9, 0, 66)), true, At(1.0));
  EXPECT_TRUE(ids_.alerts().empty());
}

TEST(RateIds, CountsPerSource) {
  RateIds ids(RateIds::Config{.threshold = 5,
                              .window = sim::Duration::Seconds(1)});
  // Two sources each below threshold: no alert even though the sum exceeds.
  for (int i = 0; i < 5; ++i) {
    auto d1 = Dgram("x");
    auto d2 = Dgram("x");
    d2.src.ip = net::IpAddress(10, 9, 0, 67);
    ids.Inspect(d1, true, sim::Time{} + sim::Duration::Millis(i));
    ids.Inspect(d2, true, sim::Time{} + sim::Duration::Millis(i));
  }
  EXPECT_TRUE(ids.alerts().empty());
}

}  // namespace
}  // namespace vids::baseline
