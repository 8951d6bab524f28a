// Tests of the sharded multi-worker engine: SPSC ring semantics, the
// shards=N vs shards=1 vs plain-Vids alert-equivalence guarantee, ring
// backpressure (stall, never drop), and cross-shard media-ownership
// transfer. The threaded cases double as the TSan stress surface — CI
// runs this binary under -fsanitize=thread, scaled up via
// SHARDED_STRESS_PACKETS.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/spsc_ring.h"
#include "common/strings.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/alert.h"
#include "vids/ids.h"
#include "vids/media_owner_map.h"
#include "vids/patterns.h"
#include "vids/sharded_ids.h"

namespace vids::ids {
namespace {

// ------------------------------------------------------------ SpscRing

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(common::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(common::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(common::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(common::SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, SlotsAreReusedInPlace) {
  // The zero-allocation handoff depends on PopN() leaving the slot object
  // alive: after a full lap, BeginPushN must hand back the same object
  // (same address, warm string capacity) it handed out last lap.
  common::SpscRing<std::string> ring(2);
  std::string* first = ring.BeginPushN();
  ASSERT_NE(first, nullptr);
  first->assign("warm-capacity-probe-string");
  const size_t capacity_before = first->capacity();
  ring.CommitPushN();
  ring.PopN(ring.FrontN(1));
  std::string* second = ring.BeginPushN();  // slot 1
  ASSERT_NE(second, nullptr);
  ring.CommitPushN();
  ring.PopN(ring.FrontN(1));
  std::string* again = ring.BeginPushN();  // back to slot 0
  ASSERT_EQ(again, first);
  EXPECT_GE(again->capacity(), capacity_before);
}

TEST(SpscRingBatched, WraparoundAtCapacityBoundaries) {
  // Batches of every size from 1 to capacity, pushed/popped repeatedly so
  // the open batch regularly straddles the index wraparound.
  common::SpscRing<int> ring(8);
  const size_t cap = ring.capacity();
  int next_push = 0;
  int next_pop = 0;
  for (size_t batch = 1; batch <= cap; ++batch) {
    for (int round = 0; round < 25; ++round) {
      size_t pushed = 0;
      while (pushed < batch) {
        int* slot = ring.BeginPushN();
        ASSERT_NE(slot, nullptr);  // ring is drained between rounds
        *slot = next_push++;
        ++pushed;
      }
      EXPECT_EQ(ring.open_push(), batch);
      if (batch == cap) {
        EXPECT_EQ(ring.BeginPushN(), nullptr);  // full: rejected, not lost
      }
      ring.CommitPushN();
      EXPECT_EQ(ring.open_push(), 0u);
      EXPECT_EQ(ring.SizeApprox(), batch);
      const size_t n = ring.FrontN(cap);
      ASSERT_EQ(n, batch);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(ring.At(i), next_pop++);
      ring.PopN(n);
      EXPECT_EQ(ring.FrontN(cap), 0u);
    }
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(SpscRingBatched, PartialBatchInvisibleUntilCommit) {
  common::SpscRing<int> ring(8);
  // Reserved-but-uncommitted slots must not be readable…
  for (int i = 0; i < 3; ++i) {
    int* slot = ring.BeginPushN();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    EXPECT_EQ(ring.FrontN(8), 0u) << "uncommitted slot leaked to consumer";
  }
  // …but they do count against capacity: the ring is full counting the
  // open batch, and rejects rather than hands out an in-flight slot twice.
  for (int i = 3; i < 8; ++i) {
    int* slot = ring.BeginPushN();
    ASSERT_NE(slot, nullptr);
    *slot = i;
  }
  EXPECT_EQ(ring.BeginPushN(), nullptr);
  ring.CommitPushN();  // one publish for all 8
  ASSERT_EQ(ring.FrontN(8), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(ring.At(i), static_cast<int>(i));
  ring.PopN(8);
}

TEST(SpscRingBatched, TwoThreadStressKeepsOrderAndLosesNothing) {
  // The TSan surface for the one-release-store-per-batch publish: producer
  // commits variable partial batches (from single slots up), consumer
  // drains variable batch sizes.
  const int n = [] {
    if (const char* s = std::getenv("SHARDED_STRESS_PACKETS")) {
      return std::max(1000, std::atoi(s));
    }
    return 200'000;
  }();
  common::SpscRing<int> ring(64);
  std::thread producer([&] {
    int i = 0;
    while (i < n) {
      // Vary the batch size so commits land on every ring offset.
      const int want = 1 + (i % 7);
      int reserved = 0;
      while (reserved < want && i < n) {
        int* slot = ring.BeginPushN();
        if (slot == nullptr) break;  // full: publish what we have
        *slot = i++;
        ++reserved;
      }
      if (reserved > 0) {
        ring.CommitPushN();
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  long long sum = 0;
  while (expected < n) {
    const size_t avail = ring.FrontN(1 + static_cast<size_t>(expected % 13));
    if (avail == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < avail; ++i) {
      ASSERT_EQ(ring.At(i), expected);  // strict FIFO under concurrency
      sum += ring.At(i);
      ++expected;
    }
    ring.PopN(avail);
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
  EXPECT_EQ(ring.FrontN(1), 0u);
}

// ------------------------------------------------- trace infrastructure

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kAttacker{net::IpAddress(10, 9, 0, 66), 5060};

struct TracePacket {
  net::Datagram dgram;
  bool from_outside = true;
  sim::Time when;
};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  return dgram;
}

net::Datagram RtpDgram(uint32_t ssrc, uint16_t seq, uint32_t ts,
                       net::Endpoint src, net::Endpoint dst) {
  rtp::RtpHeader header;
  header.ssrc = ssrc;
  header.sequence_number = seq;
  header.timestamp = ts;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id, const std::string& callee,
                        net::Endpoint offer_media, net::Endpoint via_sentby) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite,
      *sip::SipUri::Parse("sip:" + callee + "@b.example.com"));
  sip::Via via;
  via.sent_by = via_sentby;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee + "@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(offer_media).Serialize(),
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
                          uint32_t cseq, net::Endpoint via_sentby) {
  auto request = sip::Message::MakeRequest(
      method, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = via_sentby;
  via.branch = "z9hG4bK" + std::string(sip::MethodName(method)) + call_id;
  request.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  request.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  to.SetTag("tag-callee");
  request.SetTo(to);
  request.SetCallId(call_id);
  request.SetCseq(sip::CSeq{cseq, method});
  return request;
}

// Builds an attack-scenario trace with monotonically increasing timestamps.
// All steps are 17 ms — deliberately off every detection-window boundary so
// timer-vs-packet ties can't depend on floating sweep cadence.
class TraceBuilder {
 public:
  void Step() { now_ = now_ + sim::Duration::Millis(17); }
  void Skip(sim::Duration gap) { now_ = now_ + gap; }

  void Add(net::Datagram dgram, bool from_outside) {
    trace_.push_back({std::move(dgram), from_outside, now_});
  }

  // Benign INVITE/180/200/ACK handshake negotiating both media endpoints.
  void EstablishCall(const std::string& call_id, net::Endpoint caller_media,
                     net::Endpoint callee_media) {
    const auto invite = MakeInvite(call_id, "bob", caller_media, kProxyA);
    Add(SipDgram(invite, kProxyA, kProxyB), true);
    Step();
    Add(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kProxyA),
        false);
    Step();
    Add(SipDgram(MakeResponse(invite, 200, callee_media), kProxyB, kProxyA),
        false);
    Step();
    Add(SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, caller_media),
                 caller_media, callee_media),
        true);
    Step();
  }

  const std::vector<TracePacket>& trace() const { return trace_; }
  sim::Time now() const { return now_; }

 private:
  std::vector<TracePacket> trace_;
  sim::Time now_ = sim::Time::FromNanos(0);
};

// Everything that must be identical across engine shapes. `trigger` and
// `provenance` are compared separately, for the replayed aggregate alerts
// (AggregateAlertsKeepEfsmTriggerAndProvenance).
using AlertSig =
    std::tuple<int64_t, int, std::string, std::string, std::string,
               std::string>;

AlertSig SigOf(const Alert& alert) {
  return {alert.when.nanos(), static_cast<int>(alert.kind),
          alert.classification, alert.group, alert.machine, alert.detail};
}

std::vector<AlertSig> SortedSigs(const std::vector<Alert>& alerts) {
  std::vector<AlertSig> sigs;
  sigs.reserve(alerts.size());
  for (const Alert& alert : alerts) sigs.push_back(SigOf(alert));
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

std::vector<Alert> RunPlain(const std::vector<TracePacket>& trace) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  for (const TracePacket& p : trace) {
    if (p.when > scheduler.Now()) scheduler.RunUntil(p.when);
    vids.Inspect(p.dgram, p.from_outside);
  }
  return vids.alerts();
}

std::vector<Alert> RunShardedCfg(const std::vector<TracePacket>& trace,
                                 ShardedConfig config) {
  ShardedIds engine(config);
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  engine.Stop();
  return engine.alerts();
}

std::vector<Alert> RunSharded(const std::vector<TracePacket>& trace,
                              int shards) {
  ShardedConfig config;
  config.shards = shards;
  return RunShardedCfg(trace, config);
}

// Benign calls interleaved with every attack scenario whose detection the
// sharded engine re-plumbs: the two cross-call aggregates (INVITE flood,
// DRDoS) plus call-local attacks (BYE DoS, CANCEL DoS, RTP flood) that
// must keep working untouched on whatever shard their state hashed to.
std::vector<TracePacket> AttackScenarioTrace() {
  TraceBuilder b;
  DetectionConfig detection;

  // A few benign calls with media on distinct Call-IDs/endpoints.
  for (int c = 0; c < 4; ++c) {
    const std::string call_id = "benign-" + std::to_string(c) + "@trace";
    const net::Endpoint caller{net::IpAddress(10, 1, 0, 10),
                               static_cast<uint16_t>(20000 + 2 * c)};
    const net::Endpoint callee{net::IpAddress(10, 2, 0, 10),
                               static_cast<uint16_t>(30000 + 2 * c)};
    b.EstablishCall(call_id, caller, callee);
    for (int i = 1; i <= 6; ++i) {
      b.Add(RtpDgram(0x600u + static_cast<uint32_t>(c),
                     static_cast<uint16_t>(i), 160u * static_cast<uint32_t>(i),
                     caller, callee),
            true);
      b.Step();
    }
  }

  // BYE DoS: a spoofed BYE from a third party against an open call.
  b.EstablishCall("bye-dos@trace", {net::IpAddress(10, 1, 0, 11), 21000},
                  {net::IpAddress(10, 2, 0, 11), 31000});
  b.Add(SipDgram(MakeInDialog(sip::Method::kBye, "bye-dos@trace", 9,
                              kAttacker),
                 kAttacker, kProxyB),
        true);
  b.Step();

  // CANCEL DoS: pending INVITE answered by a foreign-source CANCEL.
  {
    const auto invite =
        MakeInvite("cancel-dos@trace", "carol",
                   {net::IpAddress(10, 1, 0, 12), 22000}, kProxyA);
    b.Add(SipDgram(invite, kProxyA, kProxyB), true);
    b.Step();
    b.Add(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kProxyA),
          false);
    b.Step();
    auto cancel = sip::Message::MakeRequest(
        sip::Method::kCancel, *sip::SipUri::Parse("sip:carol@b.example.com"));
    for (const auto via : invite.Headers("Via")) {
      cancel.AddHeader("Via", via);
    }
    cancel.SetFrom(*invite.From());
    cancel.SetTo(*invite.To());
    cancel.SetCallId("cancel-dos@trace");
    cancel.SetCseq(sip::CSeq{1, sip::Method::kCancel});
    b.Add(SipDgram(cancel, kAttacker, kProxyB), true);
    b.Step();
  }

  // INVITE flood: distinct Call-IDs (hence scattered across shards) aimed
  // at one AOR — the aggregate the coordinator must count globally.
  for (int k = 0; k <= detection.invite_flood_threshold + 2; ++k) {
    const std::string call_id = "flood-" + std::to_string(k) + "@trace";
    b.Add(SipDgram(MakeInvite(call_id, "floodee",
                              net::Endpoint{kAttacker.ip, 42000}, kAttacker),
                   kAttacker, kProxyB),
          true);
    b.Step();
  }

  // DRDoS reflection: unsolicited 200s, each a fresh Call-ID, converging on
  // one victim host — the other cross-shard aggregate.
  {
    const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
    const auto probe = MakeInvite(
        "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000},
        kProxyB);
    for (int k = 0; k <= detection.drdos_threshold + 2; ++k) {
      auto response = MakeResponse(probe, 200, std::nullopt);
      response.SetCallId("refl-" + std::to_string(k) + "@trace");
      b.Add(SipDgram(response, kProxyB, victim), false);
      b.Step();
    }
  }

  // RTP flood at one (unnegotiated) victim endpoint. Single key, so it
  // lands wholly on one shard — must alert there exactly as in the plain
  // engine. Tight spacing: the threshold must be crossed inside one window.
  {
    const net::Endpoint victim{net::IpAddress(10, 2, 9, 5), 40000};
    const net::Endpoint source{net::IpAddress(10, 9, 0, 66), 41000};
    for (int k = 0; k <= detection.rtp_flood_threshold + 10; ++k) {
      b.Add(RtpDgram(0xF100Du, static_cast<uint16_t>(k),
                     160u * static_cast<uint32_t>(k), source, victim),
            true);
      if (k % 50 == 49) b.Step();  // stay well inside the 1 s window
    }
    b.Step();
  }

  return b.trace();
}

// ------------------------------------------------------- equivalence

TEST(ShardedEquivalence, OneShardMatchesPlainVids) {
  const auto trace = AttackScenarioTrace();
  const auto plain = SortedSigs(RunPlain(trace));
  const auto sharded = SortedSigs(RunSharded(trace, 1));
  EXPECT_FALSE(plain.empty());  // the trace must actually trigger attacks
  EXPECT_EQ(plain, sharded);
}

TEST(ShardedEquivalence, FourShardsMatchPlainVids) {
  const auto trace = AttackScenarioTrace();
  const auto plain = SortedSigs(RunPlain(trace));
  const auto sharded = SortedSigs(RunSharded(trace, 4));
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, sharded);
  // Where batches are cut never changes alerts: with two-slot rings every
  // push backpressures and commits.
  ShardedConfig tiny_rings;
  tiny_rings.shards = 4;
  tiny_rings.ring_capacity = 2;
  EXPECT_EQ(plain, SortedSigs(RunShardedCfg(trace, tiny_rings)));
}

TEST(ShardedEquivalence, ShardCountsAgreeWithEachOther) {
  const auto trace = AttackScenarioTrace();
  const auto one = SortedSigs(RunSharded(trace, 1));
  const auto two = SortedSigs(RunSharded(trace, 2));
  const auto eight = SortedSigs(RunSharded(trace, 8));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ShardedEquivalence, AggregateAlertsKeepEfsmTriggerAndProvenance) {
  // Shards run the same call and media groups as the plain engine, and the
  // coordinator replays INVITE-flood and DRDoS events into the same EFSM
  // groups the plain engine runs inline, so every alert must reach
  // alerts() with the plain engine's trigger and flight-recorder
  // provenance, not just its rendered text.
  const auto trace = AttackScenarioTrace();
  const std::vector<Alert> plain = RunPlain(trace);
  for (int shards : {1, 4}) {
    size_t checked = 0;
    size_t aggregate = 0;
    for (const Alert& alert : RunSharded(trace, shards)) {
      if (alert.kind == AlertKind::kEngineHealth) continue;
      const auto match =
          std::find_if(plain.begin(), plain.end(), [&](const Alert& p) {
            return p.when == alert.when && p.group == alert.group &&
                   p.machine == alert.machine &&
                   p.classification == alert.classification;
          });
      ASSERT_NE(match, plain.end())
          << "shards=" << shards << ": " << alert.ToString();
      EXPECT_EQ(match->trigger, alert.trigger)
          << "shards=" << shards << ": " << alert.ToString();
      EXPECT_EQ(match->provenance, alert.provenance)
          << "shards=" << shards << ": " << alert.ToString();
      if (alert.kind == AlertKind::kAttackPattern ||
          alert.kind == AlertKind::kSpecDeviation) {
        EXPECT_FALSE(alert.trigger.empty()) << alert.ToString();
        EXPECT_FALSE(alert.provenance.empty()) << alert.ToString();
      }
      if (alert.classification == kAttackInviteFlood ||
          alert.classification == kAttackDrdos) {
        ++aggregate;
      }
      ++checked;
    }
    EXPECT_EQ(checked, plain.size()) << "shards=" << shards;
    EXPECT_GE(aggregate, 2u) << "shards=" << shards;
  }
}

TEST(ShardedEquivalence, TraceCoversEveryRelevantClassification) {
  // Guard the guard: if a future change silently stops the trace from
  // triggering an attack class, the equivalence tests would still "pass".
  const auto trace = AttackScenarioTrace();
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  engine.Stop();
  EXPECT_GE(engine.CountAlerts(kAttackInviteFlood), 1u);
  EXPECT_GE(engine.CountAlerts(kAttackDrdos), 1u);
  EXPECT_GE(engine.CountAlerts(kAttackRtpFlood), 1u);
}

// ------------------------------------------------------ backpressure

TEST(ShardedBackpressure, TinyRingsStallButLoseNothing) {
  ShardedConfig config;
  config.shards = 2;
  config.ring_capacity = 2;  // virtually every burst overruns the ring
  ShardedIds engine(config);
  const sim::Time t0 = sim::Time::FromNanos(1);
  uint64_t fed = 0;
  for (int k = 0; k < 4000; ++k) {
    const net::Endpoint victim{net::IpAddress(10, 2, 9, 1),
                               static_cast<uint16_t>(40000 + 2 * (k % 8))};
    engine.Ingest(RtpDgram(0xB00Du + static_cast<uint32_t>(k % 8),
                           static_cast<uint16_t>(k),
                           160u * static_cast<uint32_t>(k),
                           {net::IpAddress(10, 9, 0, 66), 41000}, victim),
                  true, t0);
    ++fed;
  }
  engine.Flush(t0);
  uint64_t inspected = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    inspected += engine.shard_vids(i).stats().packets;
  }
  EXPECT_EQ(inspected, fed);
  EXPECT_GT(engine.ingest_stalls(), 0u);
  engine.Stop();
}

// ---------------------------------------------------- aggregate hooks

TEST(AggregateHook, DrdosKeyIsVictimIpFromPacket) {
  // The DRDoS replay key must be the packet's destination IP itself (the
  // same key GetOrCreateDrdosGroup uses), not an event arg that could be
  // absent — an empty-key fallback would collapse all victims into one
  // shared window counter.
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  std::vector<std::string> keys;
  vids.set_aggregate_hook([&](const Vids::AggregateEvent& event) {
    if (event.kind == Vids::AggregateKind::kUnsolicitedResponse) {
      keys.emplace_back(event.key);
    }
  });
  const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
  const auto probe = MakeInvite(
      "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000}, kProxyB);
  auto response = MakeResponse(probe, 200, std::nullopt);
  response.SetCallId("refl-key@trace");
  vids.Inspect(SipDgram(response, kProxyB, victim), false);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "10.9.1.77");
}

// ----------------------------------------------------------- shutdown

TEST(ShardedShutdown, StopWithoutFlushDrainsBacklog) {
  // Regression: Stop() used to push kStop and block in join() without
  // draining the up-rings. With tiny rings and aggregate-heavy traffic a
  // worker fills its up-ring while the kStop still waits behind down-ring
  // backlog, and PushUp then blocks forever against a joining coordinator
  // (the deadlock shows up as a test timeout). Stop() must keep draining
  // until every worker has exited — and still surface every alert, since
  // the destructor takes exactly this path with no prior Flush().
  DetectionConfig detection;
  ShardedConfig config;
  config.shards = 2;
  config.ring_capacity = 2;
  ShardedIds engine(config);
  TraceBuilder b;
  b.Step();
  const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
  const auto probe = MakeInvite(
      "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000}, kProxyB);
  for (int k = 0; k < detection.drdos_threshold + 50; ++k) {
    auto response = MakeResponse(probe, 200, std::nullopt);
    response.SetCallId("refl-stop-" + std::to_string(k) + "@trace");
    engine.Ingest(SipDgram(response, kProxyB, victim), false, b.now());
    b.Step();
  }
  engine.Stop();  // deliberately no Flush() first
  EXPECT_GE(engine.CountAlerts(kAttackDrdos), 1u);
}

// ------------------------------------------------ ownership transfer

TEST(ShardedOwnership, RenegotiationMovesMediaBetweenShards) {
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  const net::Endpoint media{net::IpAddress(10, 5, 0, 10), 40000};
  TraceBuilder b;
  b.Step();
  // Call A negotiates `media`; then a sequence of calls with different
  // Call-IDs renegotiate the same endpoint. FNV scatters the Call-IDs over
  // 4 shards, so some consecutive owner pair differs and a RetractMedia
  // must cross shards (probability of all 17 landing identically: 4^-16).
  b.Add(SipDgram(MakeInvite("xfer-a@trace", "bob", media, kProxyA), kProxyA,
                 kProxyB),
        true);
  b.Step();
  for (int i = 0; i < 16; ++i) {
    const std::string call_id = "xfer-b-" + std::to_string(i) + "@trace";
    b.Add(SipDgram(MakeInvite(call_id, "bob", media, kProxyA), kProxyA,
                   kProxyB),
          true);
    b.Step();
  }
  sim::Time last;
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  EXPECT_GT(engine.ownership_transfers(), 0u);
  // Exactly one shard may still claim the endpoint: every superseded
  // claim was retracted (cross-shard) or overwritten (same shard).
  size_t media_entries = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    media_entries += engine.shard_vids(i).fact_base().media_index_count();
  }
  EXPECT_EQ(media_entries, 1u);
  engine.Stop();
}

TEST(ShardedOwnership, EarlyMediaStateCollapsesOntoClaimingShard) {
  // RTP that arrives before its SDP negotiation is hash-routed and builds
  // per-endpoint keyed counters on the fallback shard. When the SDP claim
  // lands on a different shard, the router must retract the fallback
  // shard's partial state, so exactly one keyed media group per endpoint
  // survives — split counters would make near-threshold detections depend
  // on the hash layout.
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  TraceBuilder b;
  b.Step();
  constexpr int kCalls = 8;
  const auto callee_media = [](int c) {
    return net::Endpoint{net::IpAddress(10, 2, 0, 10),
                         static_cast<uint16_t>(30000 + 2 * c)};
  };
  const auto caller_media = [](int c) {
    return net::Endpoint{net::IpAddress(10, 1, 0, 10),
                         static_cast<uint16_t>(20000 + 2 * c)};
  };
  // Early media: RTP to each callee endpoint before any SDP mentions it.
  for (int c = 0; c < kCalls; ++c) {
    for (int i = 0; i < 3; ++i) {
      b.Add(RtpDgram(0x700u + static_cast<uint32_t>(c),
                     static_cast<uint16_t>(i), 160u * static_cast<uint32_t>(i),
                     caller_media(c), callee_media(c)),
            true);
      b.Step();
    }
  }
  // Then each call negotiates its endpoint, and media keeps flowing.
  for (int c = 0; c < kCalls; ++c) {
    b.EstablishCall("early-" + std::to_string(c) + "@trace", caller_media(c),
                    callee_media(c));
    b.Add(RtpDgram(0x700u + static_cast<uint32_t>(c), 100, 16000u,
                   caller_media(c), callee_media(c)),
          true);
    b.Step();
  }
  sim::Time last;
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  // One keyed media group per endpoint across ALL shards: the pre-claim
  // state on the hash-fallback shard was dropped when the negotiating
  // call's shard claimed the endpoint.
  size_t keyed = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    keyed += engine.shard_vids(i).fact_base().keyed_count();
  }
  EXPECT_EQ(keyed, static_cast<size_t>(kCalls));
  // With 16 claims over 4 shards, some hash-fallback shard must differ
  // from its claimant (routing is deterministic, so this is stable).
  EXPECT_GT(engine.early_media_retracts(), 0u);
  engine.Stop();
}

TEST(ShardedOwnership, OwnerEntriesPlateauWithoutFlush) {
  // Unique-Call-ID INVITEs with SDP, each claiming a fresh endpoint, for
  // four owner horizons and never a Flush: the owner map must expire on
  // ingest time, holding about rate x horizon entries.
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 0;
  config.detection.call_idle_timeout = sim::Duration::Seconds(4);
  config.detection.keyed_idle_timeout = sim::Duration::Seconds(1);
  config.detection.tombstone_ttl = sim::Duration::Seconds(2);
  const int64_t horizon_s = 4 + 1;  // call_idle_timeout + keyed_idle_timeout
  const int64_t sweep_s = 1;        // sweep_interval
  constexpr int kRate = 100;        // INVITEs per second
  ShardedIds engine(config);
  size_t peak = 0;
  for (int k = 0; k < kRate * 4 * horizon_s; ++k) {
    const net::Endpoint media{
        net::IpAddress(10, 3, static_cast<uint8_t>(k >> 8),
                       static_cast<uint8_t>(k & 0xFF)),
        20000};
    engine.Ingest(SipDgram(MakeInvite("plateau-" + std::to_string(k) +
                                          "@trace",
                                      "bob", media, kProxyA),
                           kProxyA, kProxyB),
                  true, sim::Time::FromNanos(int64_t{10'000'000} * k));
    peak = std::max(peak, engine.media_owner_count());
  }
  EXPECT_GE(peak, static_cast<size_t>(kRate * horizon_s));
  EXPECT_LE(peak, static_cast<size_t>(kRate * (horizon_s + 2 * sweep_s)) + 5);
  engine.Stop();
}

TEST(ShardedOwnership, MediaGapKeepsItsOwnerAcrossMidStreamFlushes) {
  // Calls with offer/answer and 2 s of RTP both ways, then 100 s of media
  // silence, then a spoofed BYE and the caller's RTP past the grace. The
  // sharded run calls Flush every 30 s of the gap, as the soak sampler
  // does. Flush must not move the call's media off its shard: the
  // post-BYE RTP has to reach the call's RTP machine for the BYE DoS.
  constexpr int kCalls = 8;
  const auto caller_of = [](int c) {
    return net::Endpoint{net::IpAddress(10, 1, 0, 50),
                         static_cast<uint16_t>(26000 + 2 * c)};
  };
  const auto callee_of = [](int c) {
    return net::Endpoint{net::IpAddress(10, 2, 0, 50),
                         static_cast<uint16_t>(36000 + 2 * c)};
  };
  const auto call_id_of = [](int c) {
    return "gap-" + std::to_string(c) + "@trace";
  };
  TraceBuilder b;
  b.Step();
  for (int c = 0; c < kCalls; ++c) {
    b.EstablishCall(call_id_of(c), caller_of(c), callee_of(c));
  }
  uint16_t seq = 0;
  const auto talk = [&](int steps, bool both_ways) {
    for (int i = 0; i < steps; ++i) {
      ++seq;
      for (int c = 0; c < kCalls; ++c) {
        const auto ssrc = static_cast<uint32_t>(0x6A0 + c);
        b.Add(RtpDgram(ssrc, seq, 160u * seq, caller_of(c), callee_of(c)),
              true);
        if (both_ways) {
          b.Add(RtpDgram(ssrc + 0x100, seq, 160u * seq, callee_of(c),
                         caller_of(c)),
                false);
        }
      }
      b.Step();
    }
  };
  talk(118, true);  // 2 s
  b.Skip(sim::Duration::Seconds(100));
  for (int c = 0; c < kCalls; ++c) {
    b.Add(SipDgram(MakeInDialog(sip::Method::kBye, call_id_of(c), 9,
                                kAttacker),
                   kAttacker, kProxyB),
          true);
  }
  b.Step();
  talk(30, false);  // 0.5 s, well past the 120 ms grace
  const std::vector<TracePacket>& trace = b.trace();

  const auto plain = SortedSigs(RunPlain(trace));
  ASSERT_EQ(std::count_if(plain.begin(), plain.end(),
                          [](const AlertSig& sig) {
                            return std::get<2>(sig) == kAttackByeDos;
                          }),
            kCalls);

  ShardedConfig config;
  config.shards = 4;
  config.watchdog_stall_ms = 0;
  ShardedIds engine(config);
  sim::Time last = trace.front().when;
  for (const TracePacket& p : trace) {
    for (sim::Time t = last + sim::Duration::Seconds(30); t < p.when;
         t = t + sim::Duration::Seconds(30)) {
      engine.Flush(t);
    }
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  engine.Stop();
  EXPECT_EQ(plain, SortedSigs(engine.alerts()));
}

TEST(FactBase, DropMediaKeyedGroupRemovesKeyedState) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  auto& fb = vids.fact_base();
  const net::Endpoint endpoint{net::IpAddress(10, 2, 9, 5), 40000};
  fb.GetOrCreateMediaGroup(endpoint);
  EXPECT_EQ(fb.keyed_count(), 1u);
  fb.DropMediaKeyedGroup(endpoint);
  EXPECT_EQ(fb.keyed_count(), 0u);
  fb.DropMediaKeyedGroup(endpoint);  // no-op when absent
  EXPECT_EQ(fb.keyed_count(), 0u);
}

// ----------------------------------------------------- pipeline spans

TEST(PipelineSpans, SampledSpansPopulateLatencyHistograms) {
  ShardedConfig config;
  config.shards = 2;
  config.trace_sample_period = 1;  // sample every packet
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);

  const auto merged = engine.MergedMetrics();
  // Every packet was sampled: the cross-shard aggregate histograms hold
  // one span per packet, with the three stages in agreement.
  const auto* e2e = merged.FindHistogram("lat.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), trace.size());
  EXPECT_GT(e2e->sum(), 0);
  const auto* dequeue = merged.FindHistogram("lat.ingest_to_dequeue");
  const auto* inspect = merged.FindHistogram("lat.inspect");
  ASSERT_NE(dequeue, nullptr);
  ASSERT_NE(inspect, nullptr);
  EXPECT_EQ(dequeue->count(), e2e->count());
  EXPECT_EQ(inspect->count(), e2e->count());
  // The attack trace alerts, so the emit stage recorded too.
  const auto* to_alert = merged.FindHistogram("lat.ingest_to_alert");
  ASSERT_NE(to_alert, nullptr);
  EXPECT_GT(to_alert->count(), 0u);
  // Per-shard series exist under the shard prefix and sum to the total.
  uint64_t per_shard = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    const auto* h = merged.FindHistogram("shard." + std::to_string(i) +
                                         ".lat.e2e");
    ASSERT_NE(h, nullptr) << "shard " << i;
    per_shard += h->count();
  }
  EXPECT_EQ(per_shard, e2e->count());
  // Batch + queue visibility rode along.
  EXPECT_GT(merged.FindHistogram("batch.consumed")->count(), 0u);
  EXPECT_GT(merged.FindHistogram("pipeline.batch.committed")->count(), 0u);
  ASSERT_NE(merged.FindGauge("shard.0.ring.down_depth_hwm"), nullptr);
  engine.Stop();
}

TEST(PipelineSpans, SamplingOffRecordsNothing) {
  ShardedConfig config;
  config.shards = 2;
  config.trace_sample_period = 0;  // tracing disabled
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  const auto merged = engine.MergedMetrics();
  EXPECT_EQ(merged.FindHistogram("lat.e2e")->count(), 0u);
  EXPECT_EQ(merged.FindHistogram("lat.ingest_to_alert")->count(), 0u);
  engine.Stop();
}

TEST(PipelineSpans, SamplingNeverChangesAlerts) {
  const auto trace = AttackScenarioTrace();
  const auto baseline = SortedSigs(RunSharded(trace, 4));  // default period
  ShardedConfig every;
  every.shards = 4;
  every.trace_sample_period = 1;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, every)));
  ShardedConfig off;
  off.shards = 4;
  off.trace_sample_period = 0;
  off.watchdog_stall_ms = 0;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, off)));
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, WedgedWorkerRaisesEngineHealthAlert) {
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 50;
  ShardedIds engine(config);
  // A little traffic first, so the engine is provably healthy when the
  // wedge lands.
  TraceBuilder b;
  b.Step();
  b.EstablishCall("wedge@trace", {net::IpAddress(10, 1, 0, 10), 20000},
                  {net::IpAddress(10, 2, 0, 10), 30000});
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
  }
  engine.Flush(b.now());
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);

  // Wedge worker 0: its down-ring keeps the kWedge message (never retired
  // while wedged), its heartbeat freezes. Keep pumping so the watchdog's
  // episode stays continuously observed; it must alert within the
  // deadline — generous wall cap for sanitizer builds.
  engine.WedgeWorkerForTest(0);
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.CountAlerts(AlertKind::kEngineHealth) == 0 &&
         std::chrono::steady_clock::now() < cap) {
    engine.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(engine.CountAlerts(AlertKind::kEngineHealth), 1u)
      << "watchdog failed to flag a wedged worker within 30 s";
  // One alert per stall episode, aimed at the wedged shard.
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 1u);
  EXPECT_EQ(engine.watchdog_stalls(), 1u);
  for (const Alert& alert : engine.alerts()) {
    if (alert.kind != AlertKind::kEngineHealth) continue;
    EXPECT_EQ(alert.classification, kEngineWorkerStall);
    EXPECT_EQ(alert.machine, "watchdog");
    EXPECT_EQ(alert.group, "shard|0");
  }

  // Release the worker: the engine must recover and stop cleanly, and the
  // closed episode must not re-alert.
  engine.UnwedgeWorkerForTest(0);
  engine.Flush(b.now());
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 1u);
  engine.Stop();
}

TEST(Watchdog, CleanTrafficAndStopRaiseNoFalsePositives) {
  // The watchdog stays armed with a tight deadline while normal traffic,
  // Flush barriers, and Stop() all run — none of it may look like a stall
  // (episodes must anchor on pending-work-without-progress, not on idle
  // gaps or driver pauses).
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 250;
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  // A driver pause with the watchdog armed (idle-then-burst): no episode
  // may carry across the quiet gap.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const sim::Duration offset = last - sim::Time::FromNanos(0);
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when + offset);
  }
  engine.Flush(last + offset);
  engine.Stop();
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);
  EXPECT_EQ(engine.watchdog_stalls(), 0u);
}

// ------------------------------------------------------------- stress

TEST(ShardedStress, MixedTrafficUnderChurn) {
  // Wide mixed workload for the sanitizers: all shards busy, rings cycling,
  // periodic Flush barriers interleaved with traffic. Scaled up in the CI
  // TSan lane via SHARDED_STRESS_PACKETS.
  int packets = 20'000;
  if (const char* s = std::getenv("SHARDED_STRESS_PACKETS")) {
    packets = std::max(1000, std::atoi(s));
  }
  ShardedConfig config;
  config.shards = 4;
  config.ring_capacity = 64;
  ShardedIds engine(config);
  sim::Time now = sim::Time::FromNanos(1);
  uint64_t fed = 0;
  for (int k = 0; k < packets; ++k) {
    now = now + sim::Duration::Micros(97);
    if (k % 20 == 0) {
      const std::string call_id =
          "stress-" + std::to_string(k / 20) + "@trace";
      const net::Endpoint caller{net::IpAddress(10, 1, 0, 10),
                                 static_cast<uint16_t>(20000 + (k / 10) % 500)};
      engine.Ingest(
          SipDgram(MakeInvite(call_id, "bob", caller, kProxyA), kProxyA,
                   kProxyB),
          true, now);
    } else {
      const net::Endpoint dst{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(30000 + 2 * (k % 64))};
      engine.Ingest(RtpDgram(0x51000u + static_cast<uint32_t>(k % 64),
                             static_cast<uint16_t>(k),
                             160u * static_cast<uint32_t>(k),
                             {net::IpAddress(10, 1, 0, 10), 20002}, dst),
                    true, now);
    }
    ++fed;
    if (k % 5000 == 4999) engine.Flush(now);
  }
  engine.Flush(now);
  uint64_t inspected = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    inspected += engine.shard_vids(i).stats().packets;
  }
  EXPECT_EQ(inspected, fed);
  // Default-on span sampling and watchdog rode through the whole soak:
  // no stall alert may appear on a healthy run.
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);
  EXPECT_EQ(engine.watchdog_stalls(), 0u);
  engine.Stop();
}

// ------------------------------------------- rendered alert equivalence

std::string RenderedAlerts(const std::vector<Alert>& alerts) {
  std::string out;
  for (const Alert& alert : alerts) {
    out += alert.ToString();
    out += '\n';
  }
  return out;
}

TEST(ShardedEquivalence, AlertStreamByteIdenticalAcrossShards) {
  // Stronger than signature equality: the canonically ordered retained
  // history must RENDER identically for every shard count — the same
  // byte-for-byte gate the soak and the CI corpus replay enforce.
  const auto trace = AttackScenarioTrace();
  const std::string reference = RenderedAlerts(RunSharded(trace, 1));
  ASSERT_FALSE(reference.empty());
  for (int shards : {2, 4}) {
    EXPECT_EQ(reference, RenderedAlerts(RunSharded(trace, shards)))
        << "shards=" << shards;
  }
}

TEST(ShardedEquivalence, MidStreamFlushKeepsAlertsIdentical) {
  // The soak's sampling protocol — Flush mid-stream, read state, resume —
  // must not move a single alert byte. Flush only between distinct
  // instants: post-Flush ingest must carry times after the flush instant.
  const auto trace = AttackScenarioTrace();
  const std::string reference = RenderedAlerts(RunSharded(trace, 4));
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  sim::Time last;
  for (size_t i = 0; i < trace.size(); ++i) {
    engine.Ingest(trace[i].dgram, trace[i].from_outside, trace[i].when);
    last = trace[i].when;
    if (i % 97 == 96 && i + 1 < trace.size() &&
        trace[i + 1].when > trace[i].when) {
      engine.Flush(last);
    }
  }
  engine.Flush(last);
  engine.Stop();
  EXPECT_EQ(reference, RenderedAlerts(engine.alerts()));
}

TEST(ShardedEquivalence, IdleShardDoesNotHoldBackAggregateAlerts) {
  // 40 INVITEs to one AOR, 10 ms apart, every Call-ID hashed to shard 0,
  // so shard 1 never sees a packet. Its worker has nothing to vouch for,
  // but nothing it could still send can precede the last ingest either:
  // the INVITE flood (and the caller's SPIT burst) must replay on Pump(),
  // without waiting for a Flush.
  std::vector<TracePacket> trace;
  const net::Endpoint media{net::IpAddress(10, 1, 0, 10), 20000};
  for (int n = 0; trace.size() < 40; ++n) {
    const std::string call_id = "idle-shard-" + std::to_string(n);
    if (common::Fnv1a64(call_id) % 2 != 0) continue;
    trace.push_back({SipDgram(MakeInvite(call_id, "bob", media, kProxyA),
                              kAttacker, kProxyB),
                     true,
                     sim::Time::FromNanos(
                         10'000'000 * static_cast<int64_t>(trace.size()))});
  }
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 0;
  ShardedIds engine(config);
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
  }
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.CountAlerts("INVITE flood") == 0 &&
         std::chrono::steady_clock::now() < cap) {
    engine.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.CountAlerts("INVITE flood"), 1u)
      << "the idle shard held the aggregate replay back";

  engine.Flush(trace.back().when);
  engine.Stop();
  EXPECT_EQ(SortedSigs(RunPlain(trace)), SortedSigs(engine.alerts()));
}

// --------------------------------------------- payloads past 2 KB

/// Largest UDP payload an IPv4 datagram can carry (65,535 - 20 - 8).
constexpr size_t kMaxUdpPayload = 65'507;

/// `message` with an SDP body for `media` plus one `a=` filler line, sized
/// so the serialized message is exactly `bytes` long.
net::Datagram PaddedSipDgram(sip::Message message, net::Endpoint media,
                             size_t bytes, net::Endpoint src,
                             net::Endpoint dst) {
  const std::string offer = sdp::MakeAudioOffer(media).Serialize();
  const auto pad = [&](size_t filler) {
    message.SetBody(offer + "a=x-filler:" + std::string(filler, 'f') + "\r\n",
                    "application/sdp");
    return SipDgram(message, src, dst);
  };
  // A longer body can lengthen Content-Length too: shrink to fit.
  size_t filler = bytes - pad(0).payload.size();
  net::Datagram dgram = pad(filler);
  while (dgram.payload.size() > bytes) dgram = pad(--filler);
  EXPECT_EQ(dgram.payload.size(), bytes);
  return dgram;
}

// Calls, a BYE DoS and an INVITE flood whose SIP payloads run from just
// past 2 KB up to the 65,507-byte UDP maximum, plus RTP packets past 2 KB.
// The coordinator's SDP snoop and the shard's classifier must both read
// every byte to agree on routing and verdicts: the BYE DoS needs the
// padded SDP's media binding, and the flood INVITE that crosses the
// threshold is the maximum-size one.
std::vector<TracePacket> LargePayloadTrace() {
  TraceBuilder b;
  const auto caller_of = [](int c) {
    return net::Endpoint{net::IpAddress(10, 1, 0, 40),
                         static_cast<uint16_t>(24000 + 2 * c)};
  };
  const auto callee_of = [](int c) {
    return net::Endpoint{net::IpAddress(10, 2, 0, 40),
                         static_cast<uint16_t>(34000 + 2 * c)};
  };
  const auto big_rtp = [&](int c, int seq) {
    net::Datagram rtp = RtpDgram(
        0x700u + static_cast<uint32_t>(c), static_cast<uint16_t>(seq),
        160u * static_cast<uint32_t>(seq), caller_of(c), callee_of(c));
    rtp.payload.append(2'400, static_cast<char>(0x55));
    return rtp;
  };
  for (int c = 0; c < 4; ++c) {
    const std::string call_id = "big-" + std::to_string(c) + "@trace";
    const net::Endpoint caller = caller_of(c);
    const net::Endpoint callee = callee_of(c);
    const size_t bytes = 2'049 + 2'500 * static_cast<size_t>(c);
    const auto invite = MakeInvite(call_id, "bob", caller, kProxyA);
    b.Add(PaddedSipDgram(invite, caller, bytes, kProxyA, kProxyB), true);
    b.Step();
    b.Add(PaddedSipDgram(MakeResponse(invite, 200, std::nullopt), callee,
                         bytes, kProxyB, kProxyA),
          false);
    b.Step();
    b.Add(SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, caller),
                   caller, callee),
          true);
    b.Step();
    for (int seq = 1; seq <= 6; ++seq) {
      b.Add(big_rtp(c, seq), true);
      b.Step();
    }
  }
  // A spoofed BYE in the caller's name, then the caller keeps talking past
  // the in-flight grace.
  b.Add(SipDgram(MakeInDialog(sip::Method::kBye, "big-3@trace", 9, kAttacker),
                 kAttacker, kProxyB),
        true);
  b.Step();
  for (int seq = 7; seq <= 16; ++seq) {
    b.Add(big_rtp(3, seq), true);
    b.Step();
  }

  const DetectionConfig detection;
  for (int k = 0; k <= detection.invite_flood_threshold + 2; ++k) {
    const std::string call_id = "big-flood-" + std::to_string(k) + "@trace";
    const net::Endpoint media{kAttacker.ip, 42000};
    const size_t bytes = k == detection.invite_flood_threshold
                             ? kMaxUdpPayload
                             : 2'049 + 97 * static_cast<size_t>(k);
    b.Add(PaddedSipDgram(MakeInvite(call_id, "floodee", media, kAttacker),
                         media, bytes, kAttacker, kProxyB),
          true);
    b.Step();
  }
  return b.trace();
}

TEST(ShardedEquivalence, LargePayloadsRenderIdenticalAlerts) {
  const auto trace = LargePayloadTrace();
  size_t past_2k = 0;
  std::vector<sim::Time> at_max;
  for (const TracePacket& p : trace) {
    past_2k += p.dgram.payload.size() > 2'048 ? 1 : 0;
    if (p.dgram.payload.size() == kMaxUdpPayload) at_max.push_back(p.when);
  }
  EXPECT_GE(past_2k, 50u);
  ASSERT_EQ(at_max.size(), 1u);

  // The plain engine keeps causal order within an instant; put its stream
  // in the sharded engine's canonical order (alerts()) before comparing.
  std::vector<Alert> plain = RunPlain(trace);
  std::stable_sort(plain.begin(), plain.end(),
                   [](const Alert& a, const Alert& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.ToString() < b.ToString();
                   });
  const std::string reference = RenderedAlerts(plain);
  EXPECT_EQ(std::count_if(plain.begin(), plain.end(),
                          [](const Alert& a) {
                            return a.classification == kAttackByeDos;
                          }),
            1);
  const auto flood =
      std::find_if(plain.begin(), plain.end(), [](const Alert& a) {
        return a.classification == kAttackInviteFlood;
      });
  ASSERT_NE(flood, plain.end());
  EXPECT_EQ(flood->when, at_max[0]);
  for (int shards : {1, 4}) {
    EXPECT_EQ(reference, RenderedAlerts(RunSharded(trace, shards)))
        << "shards=" << shards;
  }
}

// A down-ring slot keeps the heap block of the largest payload it carried,
// so MemoryBytes must count those blocks, not just sizeof(ShardMsg).
TEST(ShardedMemory, CountsRingSlotPayloads) {
  ShardedConfig config;
  config.shards = 1;
  ShardedIds engine(config);
  const sim::Time t0 = sim::Time::FromNanos(1);
  engine.Flush(t0);
  const size_t before = engine.MemoryBytes();

  rtp::RtpHeader header;
  header.ssrc = 0xB16;
  net::Datagram dgram;
  dgram.src = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
  dgram.dst = net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000};
  for (uint16_t i = 0; i < 64; ++i) {
    header.sequence_number = i;
    dgram.payload = header.Serialize();
    dgram.payload.resize(8 * 1024, '\0');
    engine.Ingest(dgram, true, t0);
  }
  engine.Flush(t0);
  EXPECT_GE(engine.MemoryBytes(), before + 512 * 1024);
}

// ------------------------------------------------------- media owner map

// A map whose entries expire after 500 ns idle, with a wheel of 100 ns
// slots.
MediaOwnerMap TestOwners() {
  return MediaOwnerMap(sim::Duration::Nanos(500), sim::Duration::Nanos(100));
}

TEST(MediaOwnerMap, FirstClaimRetractsHashShardOnlyIfItDiffers) {
  MediaOwnerMap owners = TestOwners();
  const MediaOwnerMap::Retract moved = owners.Claim(1, /*shard=*/2, 100,
                                                    /*hash_shard=*/0);
  EXPECT_EQ(moved.shard, 0);
  EXPECT_TRUE(moved.early);
  const MediaOwnerMap::Retract stayed = owners.Claim(2, /*shard=*/3, 100,
                                                     /*hash_shard=*/3);
  EXPECT_EQ(stayed.shard, -1);
  EXPECT_EQ(owners.Lookup(1, 110), 2);
  EXPECT_EQ(owners.Lookup(2, 110), 3);
  EXPECT_EQ(owners.Lookup(3, 110), -1);
}

TEST(MediaOwnerMap, RenegotiationRetractsOldOwnerOnlyIfItDiffers) {
  MediaOwnerMap owners = TestOwners();
  owners.Claim(7, /*shard=*/1, 100, /*hash_shard=*/1);
  const MediaOwnerMap::Retract moved = owners.Claim(7, 3, 200, 1);
  EXPECT_EQ(moved.shard, 1);
  EXPECT_FALSE(moved.early);
  EXPECT_EQ(owners.Lookup(7, 210), 3);
  // A renegotiation back onto the hash shard retracts the previous owner,
  // never the hash shard again.
  const MediaOwnerMap::Retract back = owners.Claim(7, 1, 300, 1);
  EXPECT_EQ(back.shard, 3);
  EXPECT_FALSE(back.early);
}

TEST(MediaOwnerMap, ReclaimBySameShardEmitsNothing) {
  MediaOwnerMap owners = TestOwners();
  owners.Claim(9, /*shard=*/2, 100, /*hash_shard=*/0);
  const MediaOwnerMap::Retract again = owners.Claim(9, 2, 200, 0);
  EXPECT_EQ(again.shard, -1);
  EXPECT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners.Lookup(9, 210), 2);
}

TEST(MediaOwnerMap, EntriesIdlePastHorizonExpire) {
  MediaOwnerMap owners = TestOwners();
  owners.Claim(1, 0, /*when_ns=*/100, 0);  // idle since 100
  owners.Claim(2, 1, 100, 1);
  EXPECT_EQ(owners.Lookup(2, 550), 1);     // refreshed at 550
  owners.Claim(3, 2, 500, 2);              // claimed at 500
  owners.Drain(sim::Time::FromNanos(600));
  EXPECT_EQ(owners.size(), 3u);  // 1 is idle exactly the horizon: kept
  owners.Drain(sim::Time::FromNanos(1000));
  EXPECT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners.Lookup(1, 1000), -1);  // 900 idle > 500: expired
  EXPECT_EQ(owners.Lookup(2, 1000), 1);   // 450 idle: kept
  EXPECT_EQ(owners.Lookup(3, 1000), 2);   // exactly the horizon: kept
  // Past the horizon an entry is absent before any drain reaches it: the
  // lookup misses and does not refresh it.
  EXPECT_EQ(owners.Lookup(2, 1501), -1);
  EXPECT_EQ(owners.size(), 2u);
  // An expired endpoint's next claim is a first claim again.
  EXPECT_TRUE(owners.Claim(1, 3, 1600, 0).early);
  // A map drained to empty frees its table and its wheel.
  owners.Drain(sim::Time::FromNanos(3000));
  EXPECT_EQ(owners.size(), 0u);
  EXPECT_EQ(owners.MemoryBytes(), 0u);
}

TEST(MediaOwnerMap, ClaimOfAnExpiredEntryIsAFirstClaim) {
  MediaOwnerMap owners = TestOwners();
  owners.Claim(5, /*shard=*/1, 100, /*hash_shard=*/0);
  // Idle past the horizon and not yet drained. Media to the endpoint has
  // hash-routed since it expired, so a new claim retracts the hash shard,
  // not the old owner.
  const MediaOwnerMap::Retract first = owners.Claim(5, /*shard=*/2, 700, 0);
  EXPECT_EQ(first.shard, 0);
  EXPECT_TRUE(first.early);
  EXPECT_EQ(owners.Lookup(5, 710), 2);
  // The same holds when the claimant is the old owner ...
  const MediaOwnerMap::Retract again = owners.Claim(5, 2, 1300, 0);
  EXPECT_EQ(again.shard, 0);
  EXPECT_TRUE(again.early);
  // ... and a claim by the hash shard itself retracts nothing.
  EXPECT_EQ(owners.Claim(5, 0, 1900, 0).shard, -1);
  // The entry kept its one record, due since 601: the drain files it again
  // under the refreshed stamp instead of erasing the fresh claim.
  owners.Drain(sim::Time::FromNanos(2000));
  EXPECT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners.Lookup(5, 2000), 0);
}

TEST(MediaOwnerMap, DrainingChangesNoAnswer) {
  // Two maps see the same claims and lookups; one is drained at random
  // instants, the other never. Drains free memory only, so every answer
  // must agree, across gaps shorter and longer than the horizon and than
  // the wheel's revolution (25.6 us).
  MediaOwnerMap drained = TestOwners();
  MediaOwnerMap kept = TestOwners();
  common::Stream rng(24, "media-owner-drain");
  int64_t now = 0;
  size_t fewer = 0;
  for (int step = 0; step < 50'000; ++step) {
    now += rng.NextInRange(0, 99) == 0
               ? static_cast<int64_t>(rng.NextInRange(0, 40'000))
               : static_cast<int64_t>(rng.NextInRange(0, 60));
    const uint64_t key = rng.NextInRange(0, 63);
    const int hash_shard = static_cast<int>(key % 4);
    switch (rng.NextInRange(0, 2)) {
      case 0: {
        const int shard = static_cast<int>(rng.NextInRange(0, 3));
        const auto a = drained.Claim(key, shard, now, hash_shard);
        const auto b = kept.Claim(key, shard, now, hash_shard);
        ASSERT_EQ(a.shard, b.shard) << "step " << step;
        ASSERT_EQ(a.early, b.early) << "step " << step;
        break;
      }
      case 1:
        ASSERT_EQ(drained.Lookup(key, now), kept.Lookup(key, now))
            << "step " << step;
        break;
      default:
        drained.Drain(sim::Time::FromNanos(now));
        ASSERT_LE(drained.size(), kept.size());
        fewer += drained.size() < kept.size() ? 1 : 0;
        break;
    }
  }
  EXPECT_GT(fewer, 0u);  // the drains did free entries
}

}  // namespace
}  // namespace vids::ids
