// Unit suites for the vIDS components in isolation: the Packet Classifier
// (datagram → typed event) and the Call State Fact Base (group lifecycle,
// keyed groups, media index, sweeps, tombstones).
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/classifier.h"
#include "vids/deadline_heap.h"
#include "vids/fact_base.h"

namespace vids::ids {
namespace {

const net::Endpoint kSrc{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kDst{net::IpAddress(10, 2, 0, 1), 5060};

net::Datagram Wrap(std::string payload, net::PayloadKind kind) {
  net::Datagram dgram;
  dgram.src = kSrc;
  dgram.dst = kDst;
  dgram.payload = std::move(payload);
  dgram.kind = kind;
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
      Wrap(invite.Serialize(), net::PayloadKind::kSip), true);
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
  const auto result = classifier.Classify(
      Wrap(header.Serialize(), net::PayloadKind::kRtp), false);
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
  const auto result = classifier.Classify(
      Wrap(sr.Serialize(), net::PayloadKind::kRtp), true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kRtcp);
  EXPECT_EQ(result->event.ArgString("kind"), "SR");
  EXPECT_EQ(result->event.ArgInt("packet_count"), 500);
}

TEST(Classifier, HintIsOnlyAHint) {
  PacketClassifier classifier;
  // SIP content labeled as RTP still classifies as SIP (content wins).
  const auto result = classifier.Classify(
      Wrap("OPTIONS sip:x@y SIP/2.0\r\nCSeq: 1 OPTIONS\r\n"
           "Content-Length: 0\r\n\r\n",
           net::PayloadKind::kRtp),
      true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kSip);
}

TEST(Classifier, JunkIsCountedUnknown) {
  PacketClassifier classifier;
  EXPECT_EQ(classifier.Classify(
                Wrap("\x01\x02garbage", net::PayloadKind::kSip), true),
            nullptr);
  EXPECT_EQ(classifier.unknown_packets(), 1u);
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
  auto& flood1 = fact_base_.GetOrCreateKeyed(KeyedKind::kInviteFlood, "bob@b");
  auto& flood2 = fact_base_.GetOrCreateKeyed(KeyedKind::kInviteFlood, "bob@b");
  auto& media = fact_base_.GetOrCreateKeyed(KeyedKind::kMediaEndpoint,
                                            "10.2.0.10:30000");
  EXPECT_EQ(&flood1, &flood2);
  EXPECT_NE(static_cast<void*>(&flood1), static_cast<void*>(&media));
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
  EXPECT_NE(flood1.Find("invite-flood"), nullptr);
  EXPECT_NE(media.Find("media-spam"), nullptr);
  EXPECT_NE(media.Find("rtp-flood"), nullptr);
  EXPECT_NE(media.Find("rtcp-bye"), nullptr);
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
  fact_base_.GetOrCreateKeyed(KeyedKind::kInviteFlood, "bob@b");
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

TEST_F(FactBaseFixture, BinaryAndStringMediaKeysAlias) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  auto& by_string =
      fact_base_.GetOrCreateKeyed(KeyedKind::kMediaEndpoint, ep.ToString());
  auto& by_endpoint = fact_base_.GetOrCreateMediaGroup(ep);
  EXPECT_EQ(&by_string, &by_endpoint);
  EXPECT_EQ(fact_base_.keyed_count(), 1u);

  auto& drdos_by_string =
      fact_base_.GetOrCreateKeyed(KeyedKind::kDrdos, "10.2.0.1");
  auto& drdos_by_ip = fact_base_.GetOrCreateDrdosGroup(net::IpAddress(10, 2, 0, 1));
  EXPECT_EQ(&drdos_by_string, &drdos_by_ip);
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
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

// ------------------------------------------- deadline-ordered sweeping
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

// The heap against an ordered multimap reference: random pushes, erases
// of arbitrary nodes and top re-files keep the same minimum and leave every
// node's stored position pointing at itself.
TEST(DeadlineHeap, MatchesAnOrderedReferenceUnderRandomOperations) {
  struct Payload {
    uint32_t slot = kDeadlineUnfiled;
  };
  using Node = std::pair<const int, Payload>;
  struct SlotOf {
    uint32_t& operator()(Node& node) const { return node.second.slot; }
  };
  std::map<int, Payload> nodes;  // stable node addresses
  DeadlineHeap<Node, SlotOf> heap;
  std::multimap<int64_t, int> reference;  // deadline -> node key
  std::map<int, int64_t> filed;
  std::mt19937 rng(7);
  int next_key = 0;

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng() % 3);
    if (op == 0 || filed.empty()) {
      const int64_t deadline = static_cast<int64_t>(rng() % 1000);
      Node& node = *nodes.try_emplace(next_key).first;
      heap.Push(node, sim::Time::FromNanos(deadline));
      reference.emplace(deadline, next_key);
      filed[next_key++] = deadline;
    } else if (op == 1) {
      auto victim = filed.begin();
      std::advance(victim, static_cast<long>(rng() % filed.size()));
      heap.Erase(*nodes.find(victim->first));
      const auto range = reference.equal_range(victim->second);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == victim->first) {
          reference.erase(it);
          break;
        }
      }
      EXPECT_EQ(nodes[victim->first].slot, kDeadlineUnfiled);
      filed.erase(victim);
    } else {
      const int key = heap.top().first;
      const int64_t later =
          filed[key] + static_cast<int64_t>(rng() % 500);
      const auto range = reference.equal_range(filed[key]);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == key) {
          reference.erase(it);
          break;
        }
      }
      heap.RefileTop(sim::Time::FromNanos(later));
      reference.emplace(later, key);
      filed[key] = later;
    }
    ASSERT_EQ(heap.size(), filed.size());
    if (!heap.empty()) {
      ASSERT_EQ(heap.top_deadline().nanos(), reference.begin()->first);
      ASSERT_EQ(filed.at(heap.top().first), reference.begin()->first);
    }
  }
  for (const auto& [key, deadline] : filed) {
    Node& node = *nodes.find(key);
    ASSERT_NE(node.second.slot, kDeadlineUnfiled);
    heap.Erase(node);
  }
  EXPECT_TRUE(heap.empty());
  heap.Release();
  EXPECT_EQ(heap.MemoryBytes(), 0u);
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
