// Unit suites for the vIDS components in isolation: the Packet Classifier
// (datagram → typed event) and the Call State Fact Base (group lifecycle,
// keyed groups, media index, sweeps, tombstones).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/classifier.h"
#include "vids/fact_base.h"
#include "vids/flat_index.h"
#include "vids/reclaim_wheel.h"

namespace vids::ids {
namespace {

const net::Endpoint kSrc{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kDst{net::IpAddress(10, 2, 0, 1), 5060};

net::Datagram Wrap(std::string payload) {
  net::Datagram dgram;
  dgram.src = kSrc;
  dgram.dst = kDst;
  dgram.payload = std::move(payload);
  return dgram;
}

// ----------------------------------------------------------- classifier

TEST(Classifier, SipRequestEventCarriesTheInputVector) {
  PacketClassifier classifier;
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kSrc;
  via.branch = "z9hG4bKtest";
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("ft");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId("cid-1");
  invite.SetCseq(sip::CSeq{7, sip::Method::kInvite});
  invite.SetBody(
      sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000})
          .Serialize(),
      "application/sdp");

  const auto result = classifier.Classify(
      Wrap(invite.Serialize()), true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kSip);
  EXPECT_EQ(result->call_key, "cid-1");
  EXPECT_EQ(result->dest_key, "bob@b.example.com");
  const auto& event = result->event;
  EXPECT_EQ(event.name, kSipEvent);
  EXPECT_EQ(event.ArgString("kind"), "request");
  EXPECT_EQ(event.ArgString("method"), "INVITE");
  EXPECT_EQ(event.ArgInt("cseq"), 7);
  EXPECT_EQ(event.ArgString("from_tag"), "ft");
  EXPECT_EQ(event.ArgString("branch"), "z9hG4bKtest");
  EXPECT_EQ(event.ArgString("src_ip"), "10.1.0.1");
  EXPECT_EQ(event.ArgInt("dst_port"), 5060);
  EXPECT_EQ(event.Arg("from_outside"), efsm::Value{true});
  EXPECT_EQ(event.ArgString("sdp_ip"), "10.1.0.10");
  EXPECT_EQ(event.ArgInt("sdp_port"), 20000);
  EXPECT_EQ(event.ArgInt("sdp_pt"), 18);
}

TEST(Classifier, RtpEventCarriesStreamFields) {
  PacketClassifier classifier;
  rtp::RtpHeader header;
  header.ssrc = 0xCAFE;
  header.sequence_number = 42;
  header.timestamp = 4242;
  header.payload_type = 18;
  header.marker = true;
  const auto result = classifier.Classify(Wrap(header.Serialize()), false);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kRtp);
  EXPECT_EQ(result->event.ArgInt("ssrc"), 0xCAFE);
  EXPECT_EQ(result->event.ArgInt("seq"), 42);
  EXPECT_EQ(result->event.ArgInt("ts"), 4242);
  EXPECT_EQ(result->event.Arg("marker"), efsm::Value{true});
}

TEST(Classifier, RtcpSniffedBeforeRtp) {
  PacketClassifier classifier;
  rtp::SenderReport sr;
  sr.sender_ssrc = 9;
  sr.packet_count = 500;
  const auto result = classifier.Classify(Wrap(sr.Serialize()), true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kRtcp);
  EXPECT_EQ(result->event.ArgString("kind"), "SR");
  EXPECT_EQ(result->event.ArgInt("packet_count"), 500);
}

TEST(Classifier, DecideProtoTriesRtpBeforeSip) {
  sip::LazyMessage lazy;
  std::string text =
      "OPTIONS sip:x@y SIP/2.0\r\nCSeq: 1 OPTIONS\r\n"
      "Content-Length: 0\r\n\r\n";
  EXPECT_EQ(DecideProto(text, lazy), PacketProto::kSip);
  EXPECT_EQ(lazy.method(), sip::Method::kOptions);  // left indexed
  // An RTP version-2 first byte (0x80-0xBF) cannot begin a method token,
  // so RTP and SIP are disjoint on the first byte: these bytes are RTP
  // alone, and below the 12-byte fixed header they are neither.
  text[0] = static_cast<char>(0x80);
  EXPECT_FALSE(lazy.Index(text));
  EXPECT_EQ(DecideProto(text, lazy), PacketProto::kRtp);
  EXPECT_EQ(DecideProto(text.substr(0, 11), lazy), PacketProto::kUnknown);
  EXPECT_EQ(DecideProto("\x01\x02garbage", lazy), PacketProto::kUnknown);
  EXPECT_EQ(PacketClassifier().Classify(Wrap("\x01\x02garbage"), true),
            nullptr);
}

TEST(Classifier, RtcpFoldsOntoItsMediaEndpoint) {
  EXPECT_EQ(RtcpMediaEndpoint(net::Endpoint{kDst.ip, 30001}),
            (net::Endpoint{kDst.ip, 30000}));
  EXPECT_EQ(RtcpMediaEndpoint(net::Endpoint{kDst.ip, 0}), std::nullopt);
}

// ------------------------------------------------------------ fact base

class FactBaseFixture : public ::testing::Test {
 protected:
  FactBaseFixture() : fact_base_(scheduler_, config_, nullptr) {}

  DetectionConfig config_;
  sim::Scheduler scheduler_;
  CallStateFactBase fact_base_;
};

TEST_F(FactBaseFixture, CallGroupCreatedOnceWithMachinesAndChannel) {
  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  EXPECT_TRUE(created);
  EXPECT_NE(group.Find(kSipMachineName), nullptr);
  EXPECT_NE(group.Find(kRtpMachineName), nullptr);
  EXPECT_NE(group.Find("cancel-dos"), nullptr);
  EXPECT_NE(group.Find("hijack"), nullptr);

  auto& again = fact_base_.GetOrCreateCall("c1", created);
  EXPECT_FALSE(created);
  EXPECT_EQ(&group, &again);
  EXPECT_EQ(fact_base_.call_count(), 1u);
  EXPECT_EQ(fact_base_.calls_created(), 1u);
}

TEST_F(FactBaseFixture, CrossProtocolAblationSkipsChannel) {
  DetectionConfig ablated = config_;
  ablated.enable_cross_protocol = false;
  CallStateFactBase fact_base(scheduler_, ablated, nullptr);
  bool created = false;
  auto& group = fact_base.GetOrCreateCall("c1", created);
  // The SIP machine's δ emit lands on an unrouted channel: the RTP machine
  // must stay in INIT after a media offer.
  auto* sip_machine = group.Find(kSipMachineName);
  efsm::Event invite;
  invite.name = std::string(kSipEvent);
  invite.args["kind"] = std::string("request");
  invite.args["method"] = std::string("INVITE");
  invite.args["sdp_ip"] = std::string("10.1.0.10");
  invite.args["sdp_port"] = int64_t{20000};
  invite.args["sdp_pt"] = int64_t{18};
  group.DeliverData(*sip_machine, invite);
  EXPECT_EQ(group.Find(kRtpMachineName)->StateName(), "INIT");
}

TEST_F(FactBaseFixture, KeyedGroupsPerKindAndKey) {
  auto& flood1 = fact_base_.GetOrCreateInviteFlood("bob@b");
  auto& flood2 = fact_base_.GetOrCreateInviteFlood("bob@b");
  auto& media = fact_base_.GetOrCreateMediaGroup(
      net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000});
  auto& drdos = fact_base_.GetOrCreateDrdosGroup(net::IpAddress(10, 2, 0, 1));
  EXPECT_EQ(&flood1, &flood2);
  EXPECT_NE(static_cast<void*>(&flood1), static_cast<void*>(&media));
  EXPECT_EQ(fact_base_.keyed_count(), 3u);
  EXPECT_NE(flood1.Find("invite-flood"), nullptr);
  EXPECT_NE(media.Find("media-spam"), nullptr);
  EXPECT_NE(media.Find("rtp-flood"), nullptr);
  EXPECT_NE(media.Find("rtcp-bye"), nullptr);
  EXPECT_NE(drdos.Find("drdos"), nullptr);
  EXPECT_EQ(flood1.name(), "flood|bob@b");
  EXPECT_EQ(media.name(), "media|10.2.0.10:30000");
  EXPECT_EQ(drdos.name(), "drdos|10.2.0.1");
}

TEST_F(FactBaseFixture, MediaIndexMapsEndpointsToCalls) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  fact_base_.GetOrCreateCall("c2", created);
  fact_base_.IndexMedia(ep, "c1");
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c1");
  fact_base_.IndexMedia(ep, "c2");  // rebind (port reuse)
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c2");
}

TEST_F(FactBaseFixture, MediaForUnknownCallIsNotIndexed) {
  // An index entry with no owning call would have no reverse index and
  // could never be reclaimed — the fact base refuses to create one.
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "ghost");
  EXPECT_EQ(fact_base_.CallByMedia(ep), std::nullopt);
  EXPECT_EQ(fact_base_.media_index_count(), 0u);
}

TEST_F(FactBaseFixture, SweepReclaimsIdleKeyedGroups) {
  fact_base_.GetOrCreateInviteFlood("bob@b");
  scheduler_.RunUntil(scheduler_.Now() + config_.keyed_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
}

TEST_F(FactBaseFixture, SweepReclaimsIdleCallsWithTombstone) {
  bool created = false;
  fact_base_.GetOrCreateCall("stuck", created);
  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_TRUE(fact_base_.IsTombstoned("stuck"));
  EXPECT_EQ(fact_base_.calls_deleted(), 1u);

  // Tombstones themselves expire.
  scheduler_.RunUntil(scheduler_.Now() + config_.tombstone_ttl +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_FALSE(fact_base_.IsTombstoned("stuck"));
}

TEST_F(FactBaseFixture, SweepDropsMediaIndexOfDeletedCall) {
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "c1");
  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_FALSE(fact_base_.CallByMedia(ep).has_value());
}

TEST_F(FactBaseFixture, FindGroupByMediaResolvesTheOwningGroup) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), nullptr);

  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  fact_base_.IndexMedia(ep, "c1");
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), &group);

  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), nullptr);
}

TEST_F(FactBaseFixture, SweepKeepsReboundMediaIndexEntry) {
  // c1 negotiates ep, then the port is reused by c2. When c1 is reclaimed
  // its stale reverse keys must not delete c2's live index entry.
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "c1");

  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout -
                      sim::Duration::Seconds(5));
  auto& c2 = fact_base_.GetOrCreateCall("c2", created);
  fact_base_.IndexMedia(ep, "c2");

  scheduler_.RunUntil(scheduler_.Now() + sim::Duration::Seconds(10));
  fact_base_.Sweep(scheduler_.Now());  // c1 idle-expired, c2 still fresh
  EXPECT_EQ(fact_base_.call_count(), 1u);
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c2");
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), &c2);
}

// --------------------------------------------------- due-only sweeping
//
// The sweep reclaims only what is due (DESIGN.md §9), yet must reclaim each
// entry at the same sweep instant a scan of every entry would. These tests
// run the fixture's scheduler from t=0, where the first tracked state arms
// the periodic sweep, so sweeps land on whole seconds.

sim::Time At(double seconds) {
  return sim::Time::FromNanos(static_cast<int64_t>(seconds * 1e9));
}

efsm::Event SipEvent(std::string kind, std::string method, int64_t status) {
  efsm::Event event;
  event.name = std::string(kSipEvent);
  event.args["kind"] = std::move(kind);
  event.args["method"] = std::move(method);
  event.args["status"] = status;
  event.args["src_ip"] = std::string("10.1.0.1");
  return event;
}

efsm::Event WithSdp(efsm::Event event, std::string ip, int64_t port) {
  event.args["sdp_ip"] = std::move(ip);
  event.args["sdp_port"] = port;
  event.args["sdp_pt"] = int64_t{18};
  return event;
}

// Runs a call from INVITE to BYE on its SIP machine. The offer takes the
// RTP machine out of INIT and the BYE starts its grace timer T, after
// which it lingers for rtp_close_linger and retires — no packet needed.
// With `answer_bye` the 200 to the BYE retires the SIP machine as well.
void RunDialog(efsm::MachineGroup& group, bool answer_bye) {
  auto& sip = *group.Find(kSipMachineName);
  group.DeliverData(sip, WithSdp(SipEvent("request", "INVITE", 0),
                                 "10.1.0.10", 20000));
  group.DeliverData(sip, WithSdp(SipEvent("response", "INVITE", 200),
                                 "10.2.0.10", 30000));
  group.DeliverData(sip, SipEvent("request", "ACK", 0));
  group.DeliverData(sip, SipEvent("request", "BYE", 0));
  if (answer_bye) group.DeliverData(sip, SipEvent("response", "BYE", 200));
}

TEST_F(FactBaseFixture, CallRetiredByItsLingerTimerIsReclaimedAtNextSweep) {
  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  RunDialog(group, /*answer_bye=*/true);
  const auto& rtp = *group.Find(kRtpMachineName);
  ASSERT_TRUE(group.Find(kSipMachineName)->retired());
  ASSERT_FALSE(rtp.retired());

  // No packet arrives after the 200: the RTP machine retires on its linger
  // timer at T + linger = 30.12 s, and the periodic sweep at 31 s — the
  // first one after — reclaims and tombstones the call.
  scheduler_.RunUntil(sim::Time() + config_.bye_inflight_grace +
                      config_.rtp_close_linger);
  EXPECT_TRUE(rtp.retired());
  scheduler_.RunUntil(At(31) - sim::Duration::Nanos(1));
  EXPECT_EQ(fact_base_.call_count(), 1u);
  EXPECT_FALSE(fact_base_.IsTombstoned("c1"));
  scheduler_.RunUntil(At(31));
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_TRUE(fact_base_.IsTombstoned("c1"));
  EXPECT_EQ(fact_base_.calls_deleted(), 1u);
}

TEST_F(FactBaseFixture, CallWithRetiredSipMachineWaitsForItsRtpMachine) {
  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  scheduler_.RunUntil(At(5));
  RunDialog(group, /*answer_bye=*/true);  // SIP retires at 5 s
  const auto& rtp = *group.Find(kRtpMachineName);

  // Every sweep from 6 s on sees a retired SIP machine beside an active RTP
  // one. The first drops the call from its completion candidates; only the
  // RTP machine's retirement (35.12 s) queues it again.
  scheduler_.RunUntil(At(35));
  EXPECT_FALSE(rtp.retired());
  EXPECT_EQ(fact_base_.call_count(), 1u);
  scheduler_.RunUntil(At(36) - sim::Duration::Nanos(1));
  EXPECT_TRUE(rtp.retired());
  EXPECT_EQ(fact_base_.call_count(), 1u);
  scheduler_.RunUntil(At(36));
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_TRUE(fact_base_.IsTombstoned("c1"));
}

TEST_F(FactBaseFixture, CallWithRetiredRtpMachineWaitsForItsSipMachine) {
  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  RunDialog(group, /*answer_bye=*/false);  // BYE left unanswered
  auto& sip = *group.Find(kSipMachineName);

  // The RTP machine retires at 30.12 s; the sweep at 31 s finds the SIP
  // machine still in tear-down and keeps the call.
  scheduler_.RunUntil(At(40));
  EXPECT_TRUE(group.Find(kRtpMachineName)->retired());
  EXPECT_FALSE(sip.retired());
  EXPECT_EQ(fact_base_.call_count(), 1u);

  group.DeliverData(sip, SipEvent("response", "BYE", 200));
  ASSERT_TRUE(sip.retired());
  scheduler_.RunUntil(At(41) - sim::Duration::Nanos(1));
  EXPECT_EQ(fact_base_.call_count(), 1u);
  scheduler_.RunUntil(At(41));
  EXPECT_EQ(fact_base_.call_count(), 0u);
}

TEST_F(FactBaseFixture, TouchedKeyedGroupSurvivesUntilItsRefreshedDeadline) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.GetOrCreateInviteFlood("bob@b");  // filed under 30 s
  fact_base_.GetOrCreateMediaGroup(ep);
  scheduler_.RunUntil(At(29.5));
  fact_base_.GetOrCreateInviteFlood("bob@b");  // idle only after 59.5 s
  fact_base_.GetOrCreateMediaGroup(ep);

  // The sweep at 31 s pops both (filed 30 s < 31 s) and re-files them.
  scheduler_.RunUntil(At(31));
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
  scheduler_.RunUntil(At(59));
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
  scheduler_.RunUntil(At(60));  // 60 - 29.5 > keyed_idle_timeout
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
}

TEST_F(FactBaseFixture, RecreatedMediaGroupOutlivesTheDroppedGroupsDeadline) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.GetOrCreateMediaGroup(ep);  // filed under 30 s
  scheduler_.RunUntil(At(20));
  fact_base_.DropMediaKeyedGroup(ep);
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
  fact_base_.GetOrCreateMediaGroup(ep);  // a new group, idle after 50 s

  scheduler_.RunUntil(At(50));
  EXPECT_EQ(fact_base_.keyed_count(), 1u);
  scheduler_.RunUntil(At(51));
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
}

TEST_F(FactBaseFixture, RetombstonedCallIdKeepsItsLaterExpiry) {
  // A REGISTER transaction completes once its SIP machine retires (the RTP
  // machine never leaves INIT), so each round is reclaimed at the next
  // sweep. Vids drops packets of a tombstoned Call-ID; recreating it here
  // goes through the fact base directly.
  const auto register_once = [this] {
    bool created = false;
    auto& group = fact_base_.GetOrCreateCall("reg", created);
    auto& sip = *group.Find(kSipMachineName);
    group.DeliverData(sip, SipEvent("request", "REGISTER", 0));
    group.DeliverData(sip, SipEvent("response", "REGISTER", 200));
  };
  register_once();
  scheduler_.RunUntil(At(1));  // reclaimed; tombstoned until 33 s
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_TRUE(fact_base_.IsTombstoned("reg"));
  scheduler_.RunUntil(At(10));
  register_once();
  scheduler_.RunUntil(At(11));  // reclaimed again; tombstoned until 43 s
  EXPECT_EQ(fact_base_.call_count(), 0u);

  scheduler_.RunUntil(At(42));
  EXPECT_TRUE(fact_base_.IsTombstoned("reg"));
  scheduler_.RunUntil(At(43));
  EXPECT_FALSE(fact_base_.IsTombstoned("reg"));
}

TEST_F(FactBaseFixture, DrainedFactBaseReturnsToItsEmptyFootprint) {
  const size_t empty = fact_base_.MemoryBytes();
  bool created = false;
  for (int i = 0; i < 40; ++i) {
    const std::string id = std::to_string(i);
    RunDialog(fact_base_.GetOrCreateCall("done-" + id, created), true);
    fact_base_.GetOrCreateCall("stuck-" + id, created);
    const net::Endpoint ep{net::IpAddress(10, 2, 0, 10),
                           static_cast<uint16_t>(30000 + 2 * i)};
    fact_base_.IndexMedia(ep, "stuck-" + id);
    fact_base_.GetOrCreateMediaGroup(ep);
    fact_base_.GetOrCreateInviteFlood("aor-" + id);
    fact_base_.GetOrCreateDrdosGroup(net::IpAddress(10, 3, 0, i));
  }
  EXPECT_GT(fact_base_.MemoryBytes(), empty);

  // Traffic pauses: the abandoned calls idle out at 181 s and their
  // tombstones expire 32 s later.
  scheduler_.RunUntil(sim::Time() + config_.call_idle_timeout +
                      config_.tombstone_ttl + sim::Duration::Seconds(5));
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
  EXPECT_EQ(fact_base_.tombstone_count(), 0u);
  EXPECT_EQ(fact_base_.media_index_count(), 0u);
  EXPECT_EQ(fact_base_.MemoryBytes(), empty);
  EXPECT_EQ(scheduler_.PendingEvents(), 0u);  // the periodic sweep stopped
}

TEST(FactBaseSweep, SweepExaminesOnlyDueEntries) {
  // Equal timeouts, so the calls and keyed groups below fall due together.
  DetectionConfig config;
  config.keyed_idle_timeout = config.call_idle_timeout;
  sim::Scheduler scheduler;
  obs::MetricsRegistry registry;
  CallStateFactBase fact_base(scheduler, config, nullptr, &registry);
  const obs::Counter& examined = registry.GetCounter("vids.sweep_examined");
  const obs::Counter& sweeps = registry.GetCounter("vids.sweeps");

  constexpr int kEach = 10000;
  bool created = false;
  for (int i = 0; i < kEach; ++i) {
    fact_base.GetOrCreateCall("call-" + std::to_string(i), created);
    if (i % 2 == 0) {
      fact_base.GetOrCreateInviteFlood("aor-" + std::to_string(i));
    } else {
      fact_base.GetOrCreateMediaGroup(
          net::Endpoint{net::IpAddress(10, 2, static_cast<uint8_t>(i >> 8),
                                       static_cast<uint8_t>(i & 0xFF)),
                        30000});
    }
  }
  ASSERT_EQ(fact_base.call_count() + fact_base.keyed_count(), 2u * kEach);

  // 180 sweeps over 20k live entries, none of them due: nothing examined.
  scheduler.RunUntil(sim::Time() + config.call_idle_timeout);
  EXPECT_EQ(sweeps.value(), 180u);
  EXPECT_EQ(examined.value(), 0u);
  EXPECT_EQ(fact_base.call_count() + fact_base.keyed_count(), 2u * kEach);

  // The next sweep finds every entry due: it examines each exactly once
  // and reclaims them all.
  scheduler.RunUntil(sim::Time() + config.call_idle_timeout +
                     config.sweep_interval);
  EXPECT_EQ(sweeps.value(), 181u);
  EXPECT_EQ(examined.value(), 2u * kEach);
  EXPECT_EQ(fact_base.call_count(), 0u);
  EXPECT_EQ(fact_base.keyed_count(), 0u);
  EXPECT_EQ(fact_base.calls_deleted(), static_cast<uint64_t>(kEach));
}

// Step budget of the two reclamation reference tests below:
// RECLAIM_REFERENCE_STEPS when set (the nightly lane runs 100x), else a
// budget of about a second in a Release build.
int ReclaimReferenceSteps() {
  const char* env = std::getenv("RECLAIM_REFERENCE_STEPS");
  return env != nullptr ? std::max(1, std::atoi(env)) : 100000;
}

// The wheel against an ordered multimap of every pending record: random
// files (already due, within one revolution and several revolutions out),
// re-files of drained records and erasures of their items (which leave the
// item's record pending, stale, as the tables do), with drains at instants
// that are not slot edges and gaps from under a slot to several
// revolutions. Each drain must hand back exactly the reference's due set.
TEST(ReclaimWheel, MatchesAnOrderedReferenceUnderRandomOperations) {
  constexpr int64_t kWidth = 1000;
  constexpr int64_t kRevolution = ReclaimWheel::kSlots * kWidth;
  using Rec = std::tuple<int64_t, uint32_t, uint32_t>;  // due, item, table
  ReclaimWheel wheel(sim::Duration::Nanos(kWidth));
  std::multiset<Rec> reference;
  std::map<uint32_t, bool> live;  // item -> still held by its table
  std::mt19937_64 rng(11);
  const auto pick = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo));
  };
  int64_t now = 0;
  uint32_t next_item = 0;
  const auto file = [&](uint32_t item, int64_t due) {
    const auto table = static_cast<uint32_t>(item % 3);
    wheel.File(sim::Time::FromNanos(due), item, table);
    reference.emplace(due, item, table);
  };
  size_t drained = 0;
  const int steps = ReclaimReferenceSteps();
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 4) {
      const int64_t offset = rng() % 8 == 0 ? pick(-2 * kRevolution, 0)
                             : rng() % 4 == 0
                                 ? pick(kRevolution, 4 * kRevolution)
                                 : pick(0, kRevolution);
      live[next_item] = true;
      file(next_item++, now + offset);
    } else if (op < 5 && !live.empty()) {
      auto victim = live.begin();
      std::advance(victim, static_cast<long>(rng() % live.size()));
      victim->second = false;  // its record stays pending, stale
    } else {
      const int64_t gap = rng() % 16 == 0 ? pick(kRevolution, 3 * kRevolution)
                          : rng() % 2 == 0 ? pick(1, kWidth)
                                           : pick(kWidth, 8 * kWidth);
      now += gap;
      if (now % kWidth == 0) ++now;  // never a slot edge
      std::vector<Rec> got;
      wheel.Drain(sim::Time::FromNanos(now),
                  [&](const ReclaimWheel::Record& record) {
                    got.emplace_back(record.due.nanos(), record.item,
                                     record.table);
                  });
      std::vector<Rec> want(reference.begin(),
                            reference.upper_bound(Rec{now, UINT32_MAX,
                                                      UINT32_MAX}));
      reference.erase(reference.begin(),
                      reference.upper_bound(Rec{now, UINT32_MAX, UINT32_MAX}));
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "step " << step << ", now " << now;
      drained += got.size();
      // The tables' part: a live item's record re-files under a later
      // deadline about half the time (touched since), or is reclaimed.
      for (const Rec& rec : got) {
        const uint32_t item = std::get<1>(rec);
        if (live.at(item) && rng() % 2 == 0) {
          file(item, now + pick(1, 2 * kRevolution));
        } else {
          live.erase(item);
        }
      }
    }
    ASSERT_EQ(wheel.size(), reference.size()) << "step " << step;
  }
  EXPECT_GT(drained, static_cast<size_t>(steps) / 10);
  now += 5 * kRevolution + 1;
  size_t last = 0;
  wheel.Drain(sim::Time::FromNanos(now),
              [&](const ReclaimWheel::Record&) { ++last; });
  EXPECT_EQ(last, reference.size());
  EXPECT_EQ(wheel.size(), 0u);
  wheel.Release();
  EXPECT_EQ(wheel.MemoryBytes(), 0u);
}

// The pool grows one block at a time and holds nothing beyond the blocks in
// use and its two per-block index vectors (vector growth at most doubles
// those).
TEST(ReclaimWheel, PoolHoldsOnlyTheBlocksInUse) {
  constexpr size_t kBlockBytes = 1024;
  static_assert(ReclaimWheel::kBlockRecords * sizeof(ReclaimWheel::Record) ==
                kBlockBytes);
  ReclaimWheel wheel(sim::Duration::Seconds(1));
  const sim::Time due = sim::Time::FromNanos(0) + sim::Duration::Seconds(5);
  uint32_t item = 0;
  for (size_t blocks = 1; blocks <= 40; ++blocks) {
    // One slot, so its chain fills every block before opening the next.
    for (uint32_t i = 0; i < ReclaimWheel::kBlockRecords; ++i) {
      wheel.File(due, item++, 0);
    }
    const size_t index_bytes =
        2 * blocks * (sizeof(void*) + sizeof(uint32_t));
    EXPECT_LE(wheel.MemoryBytes(), blocks * kBlockBytes + index_bytes)
        << blocks << " blocks in use";
  }
  size_t drained = 0;
  wheel.Drain(due, [&](const ReclaimWheel::Record& record) {
    EXPECT_EQ(record.item, drained++);
  });
  EXPECT_EQ(drained, size_t{item});
}

// The fact base against a model that scans every entry at every sweep: it
// mirrors each call's last_event, completion and tombstone expiry, each
// keyed group's last_event and the media index, under random admissions,
// touches, completions, reopened tombstones, media indexing,
// DropMediaKeyedGroup calls, packet-path sweeps and clock steps. The groups
// each sweep hands its listener must be exactly the model's set, and the
// table counts must match after every step. A 100 ms sweep over a 40 s
// call idle timeout files call deadlines past one wheel revolution.
TEST(FactBaseReference, SweepsReclaimExactlyWhatAFullScanWould) {
  DetectionConfig config;
  config.sweep_interval = sim::Duration::Millis(100);
  config.call_idle_timeout = sim::Duration::Seconds(40);
  config.keyed_idle_timeout = sim::Duration::Seconds(3);
  config.tombstone_ttl = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  CallStateFactBase fact_base(scheduler, config, nullptr);

  struct Call {
    sim::Time last_event;
    bool live = true;
    bool registered = false;  // REGISTER delivered: complete
    sim::Time expiry{};       // tombstones
  };
  std::map<std::string, Call> calls;
  std::map<std::string, sim::Time> keyed;         // group name -> last_event
  std::map<uint64_t, std::string> media;          // endpoint -> owning call
  std::mt19937_64 rng(29);
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };

  // The model's sweep: what a scan of every entry reclaims at `now`.
  const auto model_sweep = [&](sim::Time now) {
    std::vector<std::string> reclaimed;
    for (auto& [id, call] : calls) {
      if (!call.live) continue;
      if (call.registered ||
          now - call.last_event > config.call_idle_timeout) {
        reclaimed.push_back(id);
        call.live = false;
        call.expiry = now + config.tombstone_ttl;
        std::erase_if(media, [&](const auto& kv) { return kv.second == id; });
      }
    }
    for (auto it = keyed.begin(); it != keyed.end();) {
      if (now - it->second > config.keyed_idle_timeout) {
        reclaimed.push_back(it->first);
        it = keyed.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(calls, [&](const auto& kv) {
      return !kv.second.live && kv.second.expiry <= now;
    });
    std::sort(reclaimed.begin(), reclaimed.end());
    return reclaimed;
  };

  size_t sweeps = 0;
  size_t reclaimed_total = 0;
  fact_base.set_sweep_listener(
      [&](sim::Time now, std::span<const efsm::MachineGroup* const> groups) {
        std::vector<std::string> got;
        for (const efsm::MachineGroup* group : groups) {
          got.push_back(group->name());
        }
        std::sort(got.begin(), got.end());
        ++sweeps;
        reclaimed_total += got.size();
        EXPECT_EQ(got, model_sweep(now)) << "sweep at " << now;
        return false;
      });

  const auto call_id = [&] { return "c" + std::to_string(pick(300)); };
  const auto endpoint = [&] {
    return net::Endpoint{net::IpAddress(10, 2, 0, static_cast<uint8_t>(pick(60))),
                         static_cast<uint16_t>(30000 + 2 * pick(2))};
  };
  const int steps = ReclaimReferenceSteps();
  for (int step = 0; step < steps; ++step) {
    const sim::Time now = scheduler.Now();
    const size_t op = pick(100);
    if (op < 30) {  // a packet of a call: admit or touch
      const std::string id = call_id();
      bool created = false;
      const bool reopen = op < 4;
      if (reopen) {
        fact_base.GetOrCreateCall(id, created);
      } else {
        fact_base.AdmitCall(id, created);
      }
      auto it = calls.find(id);
      if (it == calls.end() || (reopen && !it->second.live)) {
        calls[id] = Call{now};
      } else if (it->second.live) {
        it->second.last_event = now;
      }
    } else if (op < 40) {  // a REGISTER transaction completes a fresh call
      std::vector<std::string> fresh;
      for (const auto& [id, call] : calls) {
        if (call.live && !call.registered) fresh.push_back(id);
      }
      if (fresh.empty()) continue;
      const std::string& id = fresh[pick(fresh.size())];
      efsm::MachineGroup* group = fact_base.FindCall(id);
      ASSERT_NE(group, nullptr) << id;
      auto& sip = *group->Find(kSipMachineName);
      group->DeliverData(sip, SipEvent("request", "REGISTER", 0));
      group->DeliverData(sip, SipEvent("response", "REGISTER", 200));
      ASSERT_TRUE(sip.retired());
      calls[id].registered = true;
    } else if (op < 55) {  // keyed groups: created or touched
      std::string name;
      if (op < 45) {
        const std::string aor = "aor-" + std::to_string(pick(40));
        fact_base.GetOrCreateInviteFlood(aor);
        name = "flood|" + aor;
      } else if (op < 52) {
        const net::Endpoint ep = endpoint();
        fact_base.GetOrCreateMediaGroup(ep);
        name = "media|" + ep.ToString();
      } else {
        const net::IpAddress victim(10, 3, 0, static_cast<uint8_t>(pick(20)));
        fact_base.GetOrCreateDrdosGroup(victim);
        name = "drdos|" + victim.ToString();
      }
      keyed[name] = now;
    } else if (op < 60) {  // SDP names an endpoint for a call
      const net::Endpoint ep = endpoint();
      const std::string id = call_id();
      fact_base.IndexMedia(ep, id);
      const auto it = calls.find(id);
      if (it != calls.end() && it->second.live) media[ep.PackedKey()] = id;
    } else if (op < 64) {  // media ownership moved to another shard
      const net::Endpoint ep = endpoint();
      keyed.erase("media|" + ep.ToString());
      fact_base.DropMediaKeyedGroup(ep);
    } else if (op < 70) {  // the packet path's sweep
      fact_base.Sweep(now);
    } else {  // the clock moves: periodic sweeps fire
      const int64_t step_ns =
          pick(200) == 0
              ? static_cast<int64_t>(30'000'000'000 + rng() % 30'000'000'000)
              : static_cast<int64_t>(rng() % 300'000'000);
      scheduler.RunUntil(now + sim::Duration::Nanos(step_ns));
    }
    size_t live = 0;
    for (const auto& [id, call] : calls) live += call.live ? 1 : 0;
    ASSERT_EQ(fact_base.call_count(), live) << "step " << step;
    ASSERT_EQ(fact_base.tombstone_count(), calls.size() - live)
        << "step " << step;
    ASSERT_EQ(fact_base.keyed_count(), keyed.size()) << "step " << step;
    ASSERT_EQ(fact_base.media_index_count(), media.size()) << "step " << step;
  }
  EXPECT_GT(sweeps, static_cast<size_t>(steps) / 10);
  EXPECT_GT(reclaimed_total, static_cast<size_t>(steps) / 20);
}

// The flat table against an unordered_map reference: random inserts, finds
// and erases over a key space that makes the index double several times,
// under the identity hash the fact base uses for packed keys and under a
// coarse hash that files four keys under each full hash (so probes compare
// keys and backward shifts cross runs of equal homes). Erased entries must
// come back, most recent first, and Release must free everything.
TEST(FlatIndex, MatchesAnUnorderedMapReferenceUnderRandomOperations) {
  struct Entry {
    uint64_t key = 0;
    uint64_t hash = 0;
    uint32_t next_free = kNoEntry;
  };
  const auto run = [](auto hash_of) {
    FlatTable<Entry> table;
    std::unordered_map<uint64_t, uint32_t> reference;  // key -> index
    std::vector<uint32_t> erased;  // free list, most recent last
    std::mt19937 rng(13);
    const auto find = [&](uint64_t key) {
      return table.Find(hash_of(key),
                        [&](uint32_t index) { return table[index].key == key; });
    };
    const size_t empty_bytes = table.MemoryBytes();
    size_t peak = 0;
    for (int step = 0; step < 60000; ++step) {
      // Grow for the first half, then shrink back towards empty.
      const bool growing = step < 30000;
      const uint64_t key = rng() % 8192;
      const auto it = reference.find(key);
      ASSERT_EQ(find(key), it != reference.end() ? it->second : kNoEntry)
          << step;
      const bool insert = rng() % 4 < (growing ? 3u : 1u);
      if (insert && it == reference.end()) {
        const uint32_t index = table.Insert(hash_of(key));
        if (!erased.empty()) {
          ASSERT_EQ(index, erased.back());  // recycled, most recent first
          erased.pop_back();
        }
        table[index].key = key;
        reference.emplace(key, index);
      } else if (!insert && it != reference.end()) {
        table.Erase(it->second);
        erased.push_back(it->second);
        reference.erase(it);
        ASSERT_EQ(find(key), kNoEntry);
      }
      ASSERT_EQ(table.size(), reference.size());
      peak = std::max(peak, reference.size());
      if (step % 5000 == 0) {
        for (const auto& [k, index] : reference) ASSERT_EQ(find(k), index);
      }
    }
    EXPECT_GT(peak, 2000u);  // 16 -> 4096+ slots: eight doublings or more
    for (const auto& [k, index] : reference) ASSERT_EQ(find(k), index);
    for (const auto& [k, index] : reference) table.Erase(index);
    EXPECT_TRUE(table.empty());
    for (uint64_t k = 0; k < 8192; ++k) ASSERT_EQ(find(k), kNoEntry);
    table.Release();
    EXPECT_EQ(table.MemoryBytes(), empty_bytes);
    // A released table starts over.
    const uint32_t index = table.Insert(hash_of(7));
    table[index].key = 7;
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(find(7), index);
  };
  run([](uint64_t key) { return std::hash<uint64_t>{}(key); });
  run([](uint64_t key) { return std::hash<uint64_t>{}(key >> 2); });
}

// An erased entry keeps what its members hold: the next insert reuses the
// key string's capacity instead of allocating.
TEST(FlatIndex, ErasedEntryKeepsItsMembersCapacity) {
  struct Entry {
    std::string key;
    uint64_t hash = 0;
    uint32_t next_free = kNoEntry;
  };
  FlatTable<Entry> table;
  const std::string long_key(64, 'a');
  const uint32_t first = table.Insert(common::StringHash{}(long_key));
  table[first].key = long_key;
  const size_t capacity = table[first].key.capacity();
  table.Erase(first);
  const std::string next_key(40, 'b');
  const uint32_t second = table.Insert(common::StringHash{}(next_key));
  ASSERT_EQ(second, first);
  table[second].key.assign(next_key);
  EXPECT_EQ(table[second].key.capacity(), capacity);
}

// ------------------------------------------------------ group recycling
//
// A reclaimed group is parked with its history and reset only when a new
// entry takes it (DESIGN.md §7). For every shape, a recycled group must
// behave exactly like a freshly built one: the same sequence, driven at the
// same instants into both, must leave equal machine states, variables,
// later timer expiries and ExplainFlight() lines.

efsm::Event RtpEvent(std::string src_ip, int64_t src_port, std::string dst_ip,
                     int64_t dst_port, int64_t ssrc, int64_t seq) {
  efsm::Event event;
  event.name = std::string(kRtpEvent);
  event.args["src_ip"] = std::move(src_ip);
  event.args["src_port"] = src_port;
  event.args["dst_ip"] = std::move(dst_ip);
  event.args["dst_port"] = dst_port;
  event.args["ssrc"] = ssrc;
  event.args["seq"] = seq;
  event.args["ts"] = seq * 160;
  event.args["pt"] = int64_t{18};
  return event;
}

efsm::Event RtcpByeEvent(int64_t ssrc) {
  efsm::Event event;
  event.name = std::string(kRtcpEvent);
  event.args["kind"] = std::string("BYE");
  event.args["ssrc"] = ssrc;
  return event;
}

efsm::Event NamedEvent(std::string_view name) {
  efsm::Event event;
  event.name = std::string(name);
  return event;
}

// Everything the recycled and the fresh group must agree on.
std::vector<std::string> Observe(const efsm::MachineGroup& group) {
  std::vector<std::string> lines;
  for (const auto& machine : group.machines()) {
    std::string line = machine.name() + " " + std::string(machine.StateName()) +
                       (machine.retired() ? " retired" : "");
    for (const auto& [key, value] : machine.local().values()) {
      line += " " + std::string(key.name()) + "=" + efsm::ToString(value);
    }
    lines.push_back(std::move(line));
  }
  std::string globals = "globals";
  for (const auto& [key, value] : group.global().values()) {
    globals += " " + std::string(key.name()) + "=" + efsm::ToString(value);
  }
  lines.push_back(std::move(globals));
  lines.push_back("pending timers " + std::to_string(group.PendingTimers()));
  for (auto& line : group.ExplainFlight(obs::FlightRecorder::kCapacity,
                                        &CallStateFactBase::DecodeFactRecord)) {
    lines.push_back(std::move(line));
  }
  return lines;
}

// One group kind: how to reach (and keep alive) its group under a key, the
// history that leaves the recycled group dirty, and the compared sequence.
struct RecycleCase {
  // Gets or creates the group of `key`, refreshing its idle clock; null
  // once a call group completed and was reclaimed.
  std::function<efsm::MachineGroup*(CallStateFactBase&, int key)> touch;
  // Drives the history; returns whether it can retire a machine.
  std::function<bool(efsm::MachineGroup&, sim::Scheduler&,
                     CallStateFactBase&)> history;
  std::vector<std::function<void(efsm::MachineGroup&)>> sequence;
};

DetectionConfig RecycleConfig() {
  // Idle horizons shorter than every timer, so a history's timer is still
  // pending when the sweep reclaims its group.
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(2);
  config.keyed_idle_timeout = sim::Duration::Seconds(2);
  config.invite_flood_window = sim::Duration::Seconds(10);
  config.drdos_window = sim::Duration::Seconds(10);
  config.rtp_flood_window = sim::Duration::Seconds(10);
  config.bye_inflight_grace = sim::Duration::Seconds(5);
  config.rtp_close_linger = sim::Duration::Seconds(5);
  return config;
}

// Keeps a busy bystander group in the fact base, so reclaiming the group
// under test never drains it (a drained fact base frees its free lists).
void TouchBystander(CallStateFactBase& fact_base) {
  fact_base.GetOrCreateInviteFlood("bystander");
}

// Runs `scheduler` to `until`, touching the group of `key` every 0.5 s so
// the idle sweep leaves it alone while its timers run. Returns false once
// the group is gone (a completed call is reclaimed regardless).
bool KeepAlive(const RecycleCase& c, CallStateFactBase& fact_base,
               sim::Scheduler& scheduler, int key, sim::Time until) {
  while (scheduler.Now() < until) {
    scheduler.RunUntil(
        std::min(until, scheduler.Now() + sim::Duration::Millis(500)));
    TouchBystander(fact_base);
    if (c.touch(fact_base, key) == nullptr) return false;
  }
  return true;
}

void ExpectRecycledMatchesFresh(const RecycleCase& c) {
  const DetectionConfig config = RecycleConfig();
  sim::Scheduler fresh_clock;
  CallStateFactBase fresh(fresh_clock, config, nullptr);
  sim::Scheduler recycled_clock;
  CallStateFactBase recycled(recycled_clock, config, nullptr);
  TouchBystander(fresh);
  TouchBystander(recycled);

  // History on key 1: a pending timer, a retired machine where the shape
  // can retire one, and a flight ring that wrapped.
  efsm::MachineGroup* old = c.touch(recycled, 1);
  ASSERT_NE(old, nullptr);
  const bool retires = c.history(*old, recycled_clock, recycled);
  EXPECT_GT(old->PendingTimers(), 0u);
  EXPECT_GT(old->flight_recorder().total_recorded(),
            obs::FlightRecorder::kCapacity);
  if (retires) {
    bool any_retired = false;
    for (const auto& machine : old->machines()) {
      any_retired |= machine.retired();
    }
    EXPECT_TRUE(any_retired);
  }

  // Left alone, the group idles out at a sweep, which cancels its timer;
  // the parked group is then taken by the next entry, before the next
  // sweep trims the free list.
  while (recycled.free_group_count() == 0) {
    ASSERT_LT(recycled_clock.Now(), At(60));
    recycled_clock.RunUntil(recycled_clock.Now() +
                            sim::Duration::Millis(250));
    TouchBystander(recycled);
  }
  EXPECT_EQ(recycled.free_group_count(), 1u);
  EXPECT_EQ(old->PendingTimers(), 0u);
  const sim::Time start = recycled_clock.Now();
  fresh_clock.RunUntil(start);
  efsm::MachineGroup* recycled_group = c.touch(recycled, 2);
  efsm::MachineGroup* fresh_group = c.touch(fresh, 2);
  ASSERT_EQ(recycled_group, old);
  EXPECT_EQ(recycled.free_group_count(), 0u);
  EXPECT_EQ(Observe(*recycled_group), Observe(*fresh_group));

  sim::Time at = start;
  for (const auto& step : c.sequence) {
    at = at + sim::Duration::Millis(250);
    fresh_clock.RunUntil(at);
    recycled_clock.RunUntil(at);
    step(*fresh_group);
    step(*recycled_group);
    EXPECT_EQ(Observe(*recycled_group), Observe(*fresh_group));
  }
  // Later timer expiries, observed once a second while the group lives.
  for (int second = 1; second <= 14; ++second) {
    const sim::Time until = at + sim::Duration::Seconds(second);
    const bool fresh_alive = KeepAlive(c, fresh, fresh_clock, 2, until);
    const bool recycled_alive =
        KeepAlive(c, recycled, recycled_clock, 2, until);
    ASSERT_EQ(recycled_alive, fresh_alive) << "at +" << second << " s";
    if (!fresh_alive) break;
    EXPECT_EQ(Observe(*recycled_group), Observe(*fresh_group))
        << "at +" << second << " s";
  }
}

TEST(GroupRecycling, CallGroupMatchesFreshGroup) {
  RecycleCase c;
  c.touch = [](CallStateFactBase& fb, int key) -> efsm::MachineGroup* {
    const std::string id = "call-" + std::to_string(key);
    if (fb.IsTombstoned(id)) return nullptr;
    bool created = false;
    return &fb.GetOrCreateCall(id, created);
  };
  c.history = [](efsm::MachineGroup& g, sim::Scheduler&,
                 CallStateFactBase&) {
    auto& sip = g.machine(kCallSip);
    g.DeliverData(sip, WithSdp(SipEvent("request", "INVITE", 0), "10.1.0.10",
                               20000));
    g.DeliverData(sip, WithSdp(SipEvent("response", "INVITE", 200),
                               "10.2.0.10", 30000));
    g.DeliverData(sip, SipEvent("request", "ACK", 0));
    g.DeliverData(sip, SipEvent("request", "BYE", 0));  // RTP arms T
    g.DeliverData(sip, SipEvent("response", "BYE", 200));  // SIP retires
    for (int64_t seq = 1; seq <= 40; ++seq) {
      g.DeliverData(g.machine(kCallRtp),
                    RtpEvent("10.1.0.10", 20000, "10.2.0.10", 30000, 5, seq));
    }
    return true;
  };
  const auto sip = [](efsm::Event event) {
    return [event](efsm::MachineGroup& g) {
      for (const size_t index : {kCallSip, kCallCancelDos, kCallHijack}) {
        g.DeliverData(g.machine(index), event);
      }
    };
  };
  const auto rtp = [](int64_t seq) {
    return [seq](efsm::MachineGroup& g) {
      g.DeliverData(g.machine(kCallRtp), RtpEvent("10.2.0.20", 31000,
                                                  "10.1.0.20", 21000, 9, seq));
    };
  };
  c.sequence = {
      sip(WithSdp(SipEvent("request", "INVITE", 0), "10.1.0.20", 21000)),
      sip(SipEvent("response", "INVITE", 180)),
      sip(WithSdp(SipEvent("response", "INVITE", 200), "10.2.0.20", 31000)),
      sip(SipEvent("request", "ACK", 0)),
      rtp(1), rtp(2), rtp(3),
      sip(SipEvent("request", "BYE", 0)),
      sip(SipEvent("response", "BYE", 200)),
  };
  ExpectRecycledMatchesFresh(c);
}

TEST(GroupRecycling, MediaGroupMatchesFreshGroup) {
  const auto endpoint = [](int key) {
    return net::Endpoint{net::IpAddress(10, 2, 0, 10),
                         static_cast<uint16_t>(30000 + 2 * key)};
  };
  RecycleCase c;
  c.touch = [endpoint](CallStateFactBase& fb, int key) {
    return &fb.GetOrCreateMediaGroup(endpoint(key));
  };
  c.history = [endpoint](efsm::MachineGroup& g, sim::Scheduler& clock,
                         CallStateFactBase& fb) {
    const auto deliver = [&g](const efsm::Event& event) {
      for (const size_t index : {kMediaSpam, kMediaRtpFlood, kMediaRtcpBye}) {
        g.DeliverData(g.machine(index), event);
      }
    };
    deliver(RtcpByeEvent(5));  // rtcp-bye: T, then linger, then Done
    sim::Time until = clock.Now() + sim::Duration::Seconds(11);
    while (clock.Now() < until) {
      clock.RunUntil(clock.Now() + sim::Duration::Millis(500));
      fb.GetOrCreateMediaGroup(endpoint(1));
    }
    for (int64_t seq = 1; seq <= 40; ++seq) {  // rtp-flood arms T1
      deliver(RtpEvent("10.1.0.10", 20000, "10.2.0.10", 30002, 5, seq));
    }
    return true;
  };
  const auto deliver = [](efsm::Event event) {
    return [event](efsm::MachineGroup& g) {
      for (const size_t index : {kMediaSpam, kMediaRtpFlood, kMediaRtcpBye}) {
        g.DeliverData(g.machine(index), event);
      }
    };
  };
  c.sequence = {
      deliver(RtpEvent("10.1.0.30", 22000, "10.2.0.10", 30004, 11, 1)),
      deliver(RtpEvent("10.1.0.30", 22000, "10.2.0.10", 30004, 11, 2)),
      deliver(RtpEvent("10.1.0.30", 22000, "10.2.0.10", 30004, 11, 9)),
      deliver(RtcpByeEvent(11)),
      deliver(RtpEvent("10.1.0.30", 22000, "10.2.0.10", 30004, 11, 10)),
  };
  ExpectRecycledMatchesFresh(c);
}

// The window counters have no final state, so their histories cannot
// retire a machine; the pending window timer and the wrapped ring remain.
RecycleCase WindowCounterCase(
    std::function<efsm::MachineGroup&(CallStateFactBase&, int)> get,
    std::string_view event_name) {
  RecycleCase c;
  c.touch = [get](CallStateFactBase& fb, int key) { return &get(fb, key); };
  c.history = [event_name](efsm::MachineGroup& g, sim::Scheduler&,
                           CallStateFactBase&) {
    for (int i = 0; i < 40; ++i) {
      g.DeliverData(g.machine(0), NamedEvent(event_name));
    }
    return false;
  };
  const auto deliver = [event_name](efsm::MachineGroup& g) {
    g.DeliverData(g.machine(0), NamedEvent(event_name));
  };
  c.sequence = {deliver, deliver, deliver};
  return c;
}

TEST(GroupRecycling, InviteFloodGroupMatchesFreshGroup) {
  ExpectRecycledMatchesFresh(WindowCounterCase(
      [](CallStateFactBase& fb, int key) -> efsm::MachineGroup& {
        return fb.GetOrCreateInviteFlood("aor-" + std::to_string(key));
      },
      kSipEvent));
}

TEST(GroupRecycling, DrdosGroupMatchesFreshGroup) {
  ExpectRecycledMatchesFresh(WindowCounterCase(
      [](CallStateFactBase& fb, int key) -> efsm::MachineGroup& {
        return fb.GetOrCreateDrdosGroup(
            net::IpAddress(10, 3, 0, static_cast<uint8_t>(key)));
      },
      kUnsolicitedEvent));
}

TEST(GroupRecycling, SweepTrimsEachFreeListToWhatItReclaimed) {
  DetectionConfig config;
  config.keyed_idle_timeout = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  CallStateFactBase fact_base(scheduler, config, nullptr);
  const auto media = [&](int i) {
    fact_base.GetOrCreateMediaGroup(
        net::Endpoint{net::IpAddress(10, 2, 0, 10),
                      static_cast<uint16_t>(30000 + 2 * i)});
  };
  // A burst of 50 media groups and 10 flood groups at t=0, plus one media
  // group that stays busy so the fact base never drains.
  for (int i = 0; i < 50; ++i) media(i);
  for (int i = 0; i < 10; ++i) {
    fact_base.GetOrCreateInviteFlood("aor-" + std::to_string(i));
  }
  const auto run_to = [&](double seconds) {
    while (scheduler.Now() < At(seconds)) {
      scheduler.RunUntil(
          std::min(At(seconds), scheduler.Now() + sim::Duration::Millis(500)));
      media(999);
    }
  };
  // The sweep at 3 s reclaims all 60 and parks them.
  run_to(3.5);
  EXPECT_EQ(fact_base.keyed_count(), 1u);
  EXPECT_EQ(fact_base.free_group_count(), 60u);
  // 20 new media groups reuse parked ones; the sweep at 4 s reclaims
  // nothing, so every remaining parked group is freed.
  for (int i = 100; i < 120; ++i) media(i);
  EXPECT_EQ(fact_base.free_group_count(), 40u);
  run_to(4.5);
  EXPECT_EQ(fact_base.free_group_count(), 0u);
  // The sweep at 6 s reclaims the 20: only they stay parked.
  run_to(6.5);
  EXPECT_EQ(fact_base.keyed_count(), 1u);
  EXPECT_EQ(fact_base.free_group_count(), 20u);
  const size_t parked_bytes = fact_base.FreeListBytes();
  EXPECT_GT(parked_bytes, 0u);
  EXPECT_LT(parked_bytes, fact_base.MemoryBytes());
}

TEST(GroupRecycling, FreeListsNeverHoldMoreThanTheLastSweepReclaimed) {
  // Random churn of every group kind. Between sweeps new groups only pop
  // parked ones, so at every instant the parked groups must number no more
  // than the latest sweep reclaimed.
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(3);
  config.keyed_idle_timeout = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  CallStateFactBase fact_base(scheduler, config, nullptr);
  size_t last_reclaimed = 0;
  size_t sweeps = 0;
  fact_base.set_sweep_listener(
      [&](sim::Time, std::span<const efsm::MachineGroup* const> reclaimed) {
        last_reclaimed = reclaimed.size();
        ++sweeps;
        return false;  // no state of its own
      });
  std::mt19937 rng(11);
  bool created = false;
  size_t max_parked = 0;
  for (int step = 0; step < 2400; ++step) {  // 120 s in 50 ms steps
    scheduler.RunUntil(scheduler.Now() + sim::Duration::Millis(50));
    ASSERT_LE(fact_base.free_group_count(), last_reclaimed) << step;
    max_parked = std::max(max_parked, fact_base.free_group_count());
    const int burst = static_cast<int>(rng() % 8);  // bursty offered load
    for (int i = 0; i < burst; ++i) {
      const auto key = static_cast<int>(rng() % 400);
      switch (rng() % 4) {
        case 0:
          fact_base.GetOrCreateCall("call-" + std::to_string(key), created);
          break;
        case 1:
          fact_base.GetOrCreateMediaGroup(net::Endpoint{
              net::IpAddress(10, 2, 0, 10),
              static_cast<uint16_t>(30000 + 2 * key)});
          break;
        case 2:
          fact_base.GetOrCreateInviteFlood("aor-" + std::to_string(key));
          break;
        default:
          fact_base.GetOrCreateDrdosGroup(
              net::IpAddress(10, 3, static_cast<uint8_t>(key >> 8),
                             static_cast<uint8_t>(key)));
      }
    }
  }
  EXPECT_GT(sweeps, 100u);
  EXPECT_GT(max_parked, 0u);  // the bound was exercised, not vacuous
}

TEST_F(FactBaseFixture, SweepIsRateLimited) {
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  // Two immediate sweeps: the second is a no-op (next_sweep_ gate), cheap
  // to call per-packet.
  fact_base_.Sweep(scheduler_.Now());
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.call_count(), 1u);
}

}  // namespace
}  // namespace vids::ids
