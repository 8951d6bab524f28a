// RTCP substrate and the ghost-media (RTP-after-RTCP-BYE) detection.
#include <gtest/gtest.h>

#include "rtp/rtcp.h"
#include "rtp/session.h"
#include "testbed/testbed.h"
#include "vids/patterns.h"

namespace vids::rtp {
namespace {

// ----------------------------------------------------------- codec

TEST(Rtcp, SenderReportRoundTrip) {
  SenderReport sr;
  sr.sender_ssrc = 0xAABBCCDD;
  sr.ntp_timestamp = 0x0123456789ABCDEFULL;
  sr.rtp_timestamp = 4242;
  sr.packet_count = 1000;
  sr.octet_count = 10000;
  ReportBlock block;
  block.ssrc = 0x11223344;
  block.fraction_lost = 12;
  block.cumulative_lost = 0x00ABCDEF & 0xFFFFFF;
  block.highest_seq = 55555;
  block.jitter = 7;
  sr.reports.push_back(block);

  const auto parsed = ParseRtcp(sr.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->sr.has_value());
  EXPECT_EQ(*parsed->sr, sr);
  EXPECT_EQ(parsed->type(), RtcpType::kSenderReport);
}

TEST(Rtcp, ReceiverReportRoundTrip) {
  ReceiverReport rr;
  rr.sender_ssrc = 99;
  ReportBlock block;
  block.ssrc = 7;
  block.highest_seq = 1234;
  rr.reports.push_back(block);
  const auto parsed = ParseRtcp(rr.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->rr.has_value());
  EXPECT_EQ(*parsed->rr, rr);
}

TEST(Rtcp, ByeRoundTripWithReason) {
  RtcpBye bye;
  bye.ssrcs = {111, 222};
  bye.reason = "done";
  const auto parsed = ParseRtcp(bye.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->bye.has_value());
  EXPECT_EQ(parsed->bye->ssrcs, bye.ssrcs);
  EXPECT_EQ(parsed->bye->reason, "done");
}

TEST(Rtcp, ByeWithoutReason) {
  RtcpBye bye;
  bye.ssrcs = {7};
  const auto parsed = ParseRtcp(bye.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->bye.has_value());
  EXPECT_TRUE(parsed->bye->reason.empty());
}

TEST(Rtcp, DiscriminatesFromRtp) {
  // An RTP voice packet must not look like RTCP, and vice versa.
  RtpHeader rtp;
  rtp.payload_type = 18;
  rtp.marker = true;
  EXPECT_FALSE(IsRtcp(rtp.Serialize()));

  SenderReport sr;
  sr.sender_ssrc = 1;
  EXPECT_TRUE(IsRtcp(sr.Serialize()));
  // RTCP *would* parse as RTP (shared first bytes) — which is exactly why
  // the classifier checks RTCP first.
  EXPECT_TRUE(RtpHeader::Parse(sr.Serialize()).has_value());
}

TEST(Rtcp, RejectsTruncatedAndJunk) {
  EXPECT_FALSE(ParseRtcp("").has_value());
  EXPECT_FALSE(ParseRtcp("\x80").has_value());
  SenderReport sr;
  sr.sender_ssrc = 1;
  std::string wire = sr.Serialize();
  EXPECT_FALSE(ParseRtcp(wire.substr(0, wire.size() - 4)).has_value());
  wire[1] = static_cast<char>(202);  // SDES: recognized range, unmodeled type
  EXPECT_FALSE(ParseRtcp(wire).has_value());
}

// The classifier and the sharded router demux on IsRtcp, so it must
// accept exactly what ParseRtcp parses: every header-byte value and every
// length of each packet type, and RTP whose second byte reads 200..204.
TEST(Rtcp, IsRtcpAcceptsExactlyWhatParseRtcpParses) {
  SenderReport sr;
  sr.sender_ssrc = 1;
  sr.reports.push_back(ReportBlock{});
  ReceiverReport rr;
  rr.sender_ssrc = 2;
  RtcpBye bye;
  bye.ssrcs = {3, 4};
  bye.reason = "done";
  RtpHeader lookalike;
  lookalike.marker = true;
  lookalike.payload_type = 72;  // second byte 0x80 | 72 = 200
  ASSERT_EQ(static_cast<uint8_t>(lookalike.Serialize()[1]), 200);
  EXPECT_FALSE(IsRtcp(lookalike.Serialize()));

  const std::string packets[] = {sr.Serialize(), rr.Serialize(),
                                 bye.Serialize(), lookalike.Serialize()};
  int accepted = 0;
  for (const std::string& wire : packets) {
    for (size_t len = 0; len <= wire.size(); ++len) {
      const std::string prefix = wire.substr(0, len);
      ASSERT_EQ(IsRtcp(prefix), ParseRtcp(prefix).has_value()) << len;
      accepted += IsRtcp(prefix) ? 1 : 0;
    }
    for (size_t at = 0; at < 4; ++at) {
      for (int value = 0; value < 256; ++value) {
        std::string mutated = wire;
        mutated[at] = static_cast<char>(value);
        ASSERT_EQ(IsRtcp(mutated), ParseRtcp(mutated).has_value())
            << "byte " << at << " = " << value;
      }
    }
  }
  EXPECT_EQ(accepted, 3);  // each RTCP packet, only at its full length
}

// ----------------------------------------------------------- sessions

class RtcpSessionFixture : public ::testing::Test {
 protected:
  RtcpSessionFixture()
      : network_(scheduler_, 5),
        rng_(5, "rtcp-test"),
        host_a_(network_.AddNode<net::Host>(network_, "a",
                                            net::IpAddress(10, 0, 0, 1))),
        host_b_(network_.AddNode<net::Host>(network_, "b",
                                            net::IpAddress(10, 0, 0, 2))) {
    auto [a_to_b, b_to_a] =
        network_.ConnectDuplex(host_a_, host_b_, net::FastEthernet());
    host_a_.SetUplink(a_to_b);
    host_b_.SetUplink(b_to_a);
  }

  MediaSession::Config ConfigFor(uint16_t local, uint16_t remote) {
    MediaSession::Config config;
    config.local_port = local;
    config.remote = net::Endpoint{local == 20000 ? host_b_.ip() : host_a_.ip(),
                                  remote};
    config.codec = G729();
    config.talkspurt.enabled = false;
    return config;
  }

  sim::Scheduler scheduler_;
  net::Network network_;
  common::Stream rng_;
  net::Host& host_a_;
  net::Host& host_b_;
};

TEST_F(RtcpSessionFixture, SenderReportsFlowPeriodically) {
  MediaSession a(scheduler_, host_a_, ConfigFor(20000, 20002), rng_);
  MediaSession b(scheduler_, host_b_, ConfigFor(20002, 20000), rng_);
  a.Start();
  b.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(21));
  // Every 5 s → 4 SRs each by t=21 s.
  EXPECT_EQ(a.rtcp_sent(), 4u);
  EXPECT_EQ(b.rtcp_received(), 4u);
  // The SR carries the sender's own packet count.
  ASSERT_TRUE(b.remote_claimed_packets().has_value());
  EXPECT_NEAR(static_cast<double>(*b.remote_claimed_packets()),
              static_cast<double>(a.packets_sent()), 110.0);
  EXPECT_FALSE(b.remote_bye_received());
}

TEST_F(RtcpSessionFixture, ByeAnnouncesTeardown) {
  MediaSession a(scheduler_, host_a_, ConfigFor(20000, 20002), rng_);
  MediaSession b(scheduler_, host_b_, ConfigFor(20002, 20000), rng_);
  a.Start();
  b.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(2));
  a.Stop();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(3));
  EXPECT_TRUE(b.remote_bye_received());
  // Stop is idempotent: only one BYE.
  a.Stop();
  b.Stop();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(4));
  EXPECT_EQ(a.rtcp_sent(), 1u);  // no SR fired before t=5s, just the BYE
}

TEST_F(RtcpSessionFixture, RtcpDisabledSendsNothing) {
  auto config = ConfigFor(20000, 20002);
  config.rtcp_enabled = false;
  MediaSession a(scheduler_, host_a_, config, rng_);
  a.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(12));
  a.Stop();
  scheduler_.Run();
  EXPECT_EQ(a.rtcp_sent(), 0u);
}

}  // namespace
}  // namespace vids::rtp

// ------------------------------------------- ghost-media detection

namespace vids::ids {
namespace {

struct AttackRecorder : efsm::Observer {
  std::vector<std::string> attacks;
  void OnAttackState(const efsm::MachineInstance& machine, efsm::StateId state,
                     const efsm::Event&) override {
    attacks.push_back(std::string(machine.def().StateName(state)));
  }
};

efsm::Event RtcpBye(int64_t ssrc) {
  efsm::Event event;
  event.name = std::string(kRtcpEvent);
  event.args["kind"] = std::string("BYE");
  event.args["ssrc"] = ssrc;
  return event;
}

efsm::Event RtpPacket(int64_t ssrc, int64_t seq) {
  efsm::Event event;
  event.name = std::string(kRtpEvent);
  event.args["ssrc"] = ssrc;
  event.args["seq"] = seq;
  event.args["ts"] = seq * 80;
  event.args["pt"] = int64_t{18};
  return event;
}

TEST(GhostMedia, RtpAfterRtcpByeIsAttack) {
  DetectionConfig config;
  sim::Scheduler scheduler;
  AttackRecorder observer;
  const auto def = BuildRtcpByeMachine(config);
  efsm::GroupShape shape;
  shape.AddMachine(def, "rtcp-bye");
  efsm::MachineGroup group(shape, "media|x", scheduler, &observer);
  auto& machine = group.machine(0);

  group.DeliverData(machine, RtpPacket(7, 1));
  group.DeliverData(machine, RtcpBye(7));
  // In-flight within grace: fine.
  group.DeliverData(machine, RtpPacket(7, 2));
  EXPECT_TRUE(observer.attacks.empty());
  scheduler.RunUntil(sim::Time{} + config.bye_inflight_grace +
                     sim::Duration::Millis(10));
  group.DeliverData(machine, RtpPacket(7, 3));
  ASSERT_EQ(observer.attacks.size(), 1u);
  EXPECT_EQ(observer.attacks[0], kAttackGhostMedia);
}

TEST(GhostMedia, NewStreamOnReusedEndpointIsFine) {
  DetectionConfig config;
  sim::Scheduler scheduler;
  AttackRecorder observer;
  const auto def = BuildRtcpByeMachine(config);
  efsm::GroupShape shape;
  shape.AddMachine(def, "rtcp-bye");
  efsm::MachineGroup group(shape, "media|x", scheduler, &observer);
  auto& machine = group.machine(0);
  group.DeliverData(machine, RtcpBye(7));
  scheduler.RunUntil(sim::Time{} + config.bye_inflight_grace +
                     sim::Duration::Millis(10));
  // A different SSRC (new session on the same port) is not ghost media.
  group.DeliverData(machine, RtpPacket(99, 1));
  EXPECT_TRUE(observer.attacks.empty());
}

TEST(GhostMedia, MachineRetiresAfterLinger) {
  DetectionConfig config;
  sim::Scheduler scheduler;
  AttackRecorder observer;
  const auto def = BuildRtcpByeMachine(config);
  efsm::GroupShape shape;
  shape.AddMachine(def, "rtcp-bye");
  efsm::MachineGroup group(shape, "media|x", scheduler, &observer);
  auto& machine = group.machine(0);
  group.DeliverData(machine, RtcpBye(7));
  scheduler.RunUntil(sim::Time{} + config.bye_inflight_grace +
                     config.rtp_close_linger + sim::Duration::Seconds(1));
  EXPECT_TRUE(machine.retired());
}

}  // namespace
}  // namespace vids::ids

// --------------------------------------------- end-to-end over testbed

namespace vids::testbed {
namespace {

TEST(GhostMediaEndToEnd, SpoofedRtcpByeDetectedThroughTheNetwork) {
  TestbedConfig config;
  config.seed = 60;
  config.uas_per_network = 3;
  Testbed bed(config);
  bed.RunFor(sim::Duration::Seconds(2));

  auto& caller = *bed.uas_a()[0];
  const auto call_id = caller.ua().PlaceCall(
      bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(120));
  bed.RunFor(sim::Duration::Seconds(6));
  const auto snap = bed.eavesdropper().Get(call_id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->media_seen);

  bed.attacker().SendSpoofedRtcpBye(*snap);
  bed.RunFor(sim::Duration::Seconds(5));
  EXPECT_GE(bed.vids()->CountAlerts(ids::kAttackGhostMedia), 1u);
  // The SIP dialog is untouched: no BYE DoS, no deviations.
  EXPECT_EQ(bed.vids()->CountAlerts(ids::kAttackByeDos), 0u);
  EXPECT_EQ(bed.vids()->CountAlerts(ids::AlertKind::kSpecDeviation), 0u);
}

TEST(GhostMediaEndToEnd, CleanCallTeardownRaisesNoGhostAlert) {
  TestbedConfig config;
  config.seed = 61;
  config.uas_per_network = 3;
  Testbed bed(config);
  bed.RunFor(sim::Duration::Seconds(2));
  auto& caller = *bed.uas_a()[0];
  caller.ua().PlaceCall(bed.uas_b()[0]->ua().address_of_record(),
                        sim::Duration::Seconds(20));
  bed.RunFor(sim::Duration::Seconds(40));
  ASSERT_FALSE(caller.ua().completed_calls().empty());
  EXPECT_FALSE(caller.ua().completed_calls()[0].failed);
  EXPECT_EQ(bed.vids()->CountAlerts(ids::AlertKind::kAttackPattern), 0u);
  EXPECT_EQ(bed.vids()->CountAlerts(ids::AlertKind::kSpecDeviation), 0u);
  // RTCP was live on the wire and classified as such.
  EXPECT_GT(bed.vids()->stats().rtcp_packets, 0u);
}

}  // namespace
}  // namespace vids::testbed
