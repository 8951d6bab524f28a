// Tests for the capture front end (DESIGN.md §14): the pcap reader/writer
// pair and its pull-batch contract, the corpus generator, the RunSource
// replay driver, and the sharded engine's clock-domain hardening under
// faster-than-real-time replay.
#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "capture/corpus.h"
#include "capture/pcap.h"
#include "capture/replay.h"
#include "net/address.h"
#include "net/datagram.h"
#include "sim/scheduler.h"
#include "sip/lazy_message.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace vids::capture {
namespace {

const net::Endpoint kOutA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kInB{net::IpAddress(10, 2, 0, 1), 5060};

net::Datagram Dg(net::Endpoint src, net::Endpoint dst, std::string payload,
                 uint32_t padding = 0) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = std::move(payload);
  dgram.padding_bytes = padding;
  return dgram;
}

std::vector<TimedPacket> AllPackets(PcapFileSource& source) {
  std::vector<TimedPacket> all;
  std::vector<TimedPacket> batch;
  while (source.PullBatch(batch, 16) > 0) {
    for (auto& packet : batch) all.push_back(std::move(packet));
  }
  return all;
}

/// A 12-byte RTP-shaped payload (version bits 2) that is not RTCP-shaped.
std::string RtpShaped() {
  std::string payload(12, '\0');
  payload[0] = static_cast<char>(0x80);
  payload[1] = static_cast<char>(0x12);  // PT 18, not in the RTCP range
  return payload;
}

// ------------------------------------------------- hand-built pcap bytes
// The writer only emits well-formed Ethernet files; the cases a reader
// must *reject* or *skip* (other protocols, fragments, raw-IP linktype,
// bogus lengths) are assembled byte by byte here.

void PutLe16(std::string& s, uint16_t v) {
  s += static_cast<char>(v & 0xFF);
  s += static_cast<char>(v >> 8);
}

void PutLe32(std::string& s, uint32_t v) {
  s += static_cast<char>(v & 0xFF);
  s += static_cast<char>((v >> 8) & 0xFF);
  s += static_cast<char>((v >> 16) & 0xFF);
  s += static_cast<char>((v >> 24) & 0xFF);
}

void PutBe16(std::string& s, uint16_t v) {
  s += static_cast<char>(v >> 8);
  s += static_cast<char>(v & 0xFF);
}

void PutBe32(std::string& s, uint32_t v) {
  s += static_cast<char>((v >> 24) & 0xFF);
  s += static_cast<char>((v >> 16) & 0xFF);
  s += static_cast<char>((v >> 8) & 0xFF);
  s += static_cast<char>(v & 0xFF);
}

std::string GlobalHeader(uint32_t linktype) {  // little-endian, microsecond
  std::string s;
  PutLe32(s, 0xa1b2c3d4);
  PutLe16(s, 2);
  PutLe16(s, 4);
  PutLe32(s, 0);
  PutLe32(s, 0);
  PutLe32(s, 65535);
  PutLe32(s, linktype);
  return s;
}

std::string Ipv4Packet(net::Endpoint src, net::Endpoint dst,
                       std::string_view payload, uint8_t proto = 17,
                       uint16_t frag = 0x4000, int32_t udp_len = -1) {
  std::string f;
  f += static_cast<char>(0x45);  // version 4, IHL 5
  f += '\0';
  PutBe16(f, static_cast<uint16_t>(28 + payload.size()));
  PutBe16(f, 7);     // identification
  PutBe16(f, frag);  // default: DF, no offset
  f += static_cast<char>(0x40);  // TTL
  f += static_cast<char>(proto);
  PutBe16(f, 0);  // header checksum (reader does not verify)
  PutBe32(f, src.ip.bits());
  PutBe32(f, dst.ip.bits());
  PutBe16(f, src.port);
  PutBe16(f, dst.port);
  PutBe16(f, udp_len >= 0 ? static_cast<uint16_t>(udp_len)
                          : static_cast<uint16_t>(8 + payload.size()));
  PutBe16(f, 0);  // UDP checksum
  f.append(payload);
  return f;
}

std::string EthFrame(uint16_t ethertype, std::string_view body) {
  std::string f(12, static_cast<char>(0x02));  // MACs, content irrelevant
  PutBe16(f, ethertype);
  f.append(body);
  return f;
}

void AddRecord(std::string& file, uint32_t ts_sec, uint32_t ts_frac,
               std::string_view frame) {
  PutLe32(file, ts_sec);
  PutLe32(file, ts_frac);
  PutLe32(file, static_cast<uint32_t>(frame.size()));
  PutLe32(file, static_cast<uint32_t>(frame.size()));
  file.append(frame);
}

// ------------------------------------------------------------ round-trip

TEST(PcapRoundTrip, AllMagicVariants) {
  for (const bool big_endian : {false, true}) {
    for (const bool nanosecond : {false, true}) {
      PcapWriteOptions write;
      write.big_endian = big_endian;
      write.nanosecond = nanosecond;
      PcapWriter writer(write);
      // Microsecond-aligned times so the µs variants round-trip losslessly.
      writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "hello"));
      writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(1),
                 Dg(kInB, kOutA, RtpShaped()));
      writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(2),
                 Dg(kOutA, kInB, "world"));

      PcapReadOptions read;
      read.inside = *net::Subnet::Parse("10.2.0.0/16");
      PcapFileSource source(writer.bytes(), read);
      ASSERT_TRUE(source.ok()) << source.error();
      EXPECT_EQ(source.swapped(), big_endian);
      EXPECT_EQ(source.nanosecond(), nanosecond);
      EXPECT_EQ(source.linktype(), 1u);

      const auto packets = AllPackets(source);
      ASSERT_EQ(packets.size(), 3u);
      ASSERT_TRUE(source.ok()) << source.error();
      EXPECT_EQ(packets[0].when.nanos(), 0);
      EXPECT_EQ(packets[1].when.nanos(), 1'000'000);
      EXPECT_EQ(packets[2].when.nanos(), 2'000'000);
      EXPECT_EQ(packets[0].dgram.payload, "hello");
      EXPECT_EQ(packets[1].dgram.payload, RtpShaped());
      EXPECT_EQ(packets[2].dgram.payload, "world");
      EXPECT_EQ(packets[0].dgram.src, kOutA);
      EXPECT_EQ(packets[0].dgram.dst, kInB);
      EXPECT_TRUE(packets[0].from_outside);   // src 10.1.0.1 is outside
      EXPECT_FALSE(packets[1].from_outside);  // src 10.2.0.1 is inside
      EXPECT_EQ(packets[0].dgram.kind, net::PayloadKind::kOther);
      EXPECT_EQ(packets[1].dgram.kind, net::PayloadKind::kRtp);
      EXPECT_EQ(packets[0].dgram.padding_bytes, 0u);
      EXPECT_EQ(packets[0].dgram.sent_time, packets[0].when);
      EXPECT_LT(packets[0].dgram.id, packets[1].dgram.id);
      EXPECT_EQ(source.clock().nanos(), 2'000'000);
      EXPECT_EQ(source.stats().delivered, 3u);
      EXPECT_EQ(source.stats().records, 3u);
    }
  }
}

TEST(PcapRoundTrip, NanosecondPrecisionAndMicrosecondQuantization) {
  const auto odd = sim::Time::FromNanos(123'456'789);

  PcapWriter ns_writer;  // nanosecond magic by default
  ns_writer.Add(odd, Dg(kOutA, kInB, "x"));
  PcapFileSource ns_source(ns_writer.bytes());
  auto packets = AllPackets(ns_source);
  ASSERT_EQ(packets.size(), 1u);
  PcapReadOptions keep;
  keep.rebase_to_first = false;
  PcapFileSource abs_source(ns_writer.bytes(), keep);
  packets = AllPackets(abs_source);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].when.nanos() % 1'000'000'000, 123'456'789);

  PcapWriteOptions micro;
  micro.nanosecond = false;
  PcapWriter us_writer(micro);
  us_writer.Add(odd, Dg(kOutA, kInB, "x"));
  PcapFileSource us_source(us_writer.bytes(), keep);
  packets = AllPackets(us_source);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].when.nanos() % 1'000'000'000, 123'456'000);
}

TEST(PcapRoundTrip, VlanTaggedFrames) {
  PcapWriteOptions write;
  write.vlan = true;
  PcapWriter writer(write);
  writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "tagged"));
  writer.Add(sim::Time::FromNanos(10), Dg(kInB, kOutA, "back"));

  PcapFileSource source(writer.bytes());
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(packets[0].dgram.payload, "tagged");
  EXPECT_EQ(packets[1].dgram.payload, "back");
}

TEST(PcapRoundTrip, SnaplenTornPaddingPreserved) {
  PcapWriter writer;
  // 4 captured bytes of a claimed 100-byte wire payload.
  writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "HEAD", 96));
  // payload + padding == 65507, the largest datagram UDP/IPv4 can carry
  // (one byte more fails closed: SkipsNonUdpTrafficWithAccounting).
  writer.Add(sim::Time::FromNanos(10), Dg(kOutA, kInB, "abcd", 65503));
  PcapFileSource source(writer.bytes());
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(packets[0].dgram.payload, "HEAD");
  EXPECT_EQ(packets[0].dgram.padding_bytes, 96u);
  EXPECT_EQ(packets[0].dgram.WireBytes(), 4u + 96u + 28u);
  EXPECT_EQ(packets[1].dgram.payload, "abcd");
  EXPECT_EQ(packets[1].dgram.padding_bytes, 65503u);
}

// ------------------------------------------------------- reader hardening

TEST(PcapReader, PullBatchHonorsMaxAndEndsPermanently) {
  // Five packets, the last two tied: batches of at most `max`, ties in
  // capture order, then 0 for good, with the clock at the last packet.
  PcapWriter writer;
  for (int i = 0; i < 5; ++i) {
    writer.Add(sim::Time::FromNanos(std::min(i, 3) * 100),
               Dg(kOutA, kInB, std::string(1, static_cast<char>('a' + i))));
  }
  PcapFileSource source(writer.bytes());
  std::vector<TimedPacket> batch;
  EXPECT_EQ(source.PullBatch(batch, 2), 2u);
  EXPECT_EQ(source.PullBatch(batch, 2), 2u);
  EXPECT_EQ(batch[1].dgram.payload, "d");
  EXPECT_EQ(source.PullBatch(batch, 2), 1u);
  EXPECT_EQ(batch[0].dgram.payload, "e");
  EXPECT_EQ(batch[0].when.nanos(), 300);
  EXPECT_EQ(source.PullBatch(batch, 2), 0u);
  EXPECT_EQ(source.PullBatch(batch, 2), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(source.clock().nanos(), 300);
  EXPECT_TRUE(source.ok());
}

TEST(PcapReader, TruncatedFinalRecordDeliversPrefixThenFaults) {
  PcapWriter writer;
  writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "one"));
  writer.Add(sim::Time::FromNanos(10), Dg(kInB, kOutA, "two"));
  writer.Add(sim::Time::FromNanos(20), Dg(kOutA, kInB, "three"));

  // Cut mid-way through the last record's frame bytes.
  PcapFileSource torn(writer.bytes().substr(0, writer.bytes().size() - 5));
  const auto packets = AllPackets(torn);
  EXPECT_EQ(packets.size(), 2u);
  EXPECT_FALSE(torn.ok());
  EXPECT_NE(torn.error().find("record 3"), std::string::npos) << torn.error();
  EXPECT_NE(torn.error().find("past end of file"), std::string::npos);
  // Faulted source stays at EOF: further pulls yield nothing.
  std::vector<TimedPacket> more;
  EXPECT_EQ(torn.PullBatch(more, 4), 0u);

  // Cut inside a record *header* (8 stray bytes after a valid file).
  PcapWriter one;
  one.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "only"));
  PcapFileSource ragged(one.bytes() + std::string(8, '\0'));
  EXPECT_EQ(AllPackets(ragged).size(), 1u);
  EXPECT_FALSE(ragged.ok());
  EXPECT_NE(ragged.error().find("record header"), std::string::npos)
      << ragged.error();
}

TEST(PcapReader, BadMagicFailsClosed) {
  PcapFileSource source("this is not a pcap savefile, not even close");
  EXPECT_FALSE(source.ok());
  EXPECT_NE(source.error().find("bad magic"), std::string::npos);
  std::vector<TimedPacket> batch;
  EXPECT_EQ(source.PullBatch(batch, 4), 0u);
}

TEST(PcapReader, TruncatedGlobalHeaderFailsClosed) {
  PcapFileSource source(GlobalHeader(1).substr(0, 10));
  EXPECT_FALSE(source.ok());
  EXPECT_NE(source.error().find("global header"), std::string::npos);
}

TEST(PcapReader, UnsupportedLinktypeFailsClosed) {
  PcapWriter writer;
  writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "x"));
  std::string bytes = writer.bytes();
  bytes[20] = static_cast<char>(113);  // LINKTYPE_LINUX_SLL
  bytes[21] = bytes[22] = bytes[23] = '\0';
  PcapFileSource source(bytes);
  EXPECT_FALSE(source.ok());
  EXPECT_NE(source.error().find("linktype 113"), std::string::npos);
}

TEST(PcapReader, RawIpv4Linktype) {
  std::string file = GlobalHeader(101);  // LINKTYPE_RAW: no Ethernet shim
  AddRecord(file, 1, 500, Ipv4Packet(kOutA, kInB, "bare-ip"));
  PcapFileSource source(file);
  EXPECT_EQ(source.linktype(), 101u);
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(packets[0].dgram.payload, "bare-ip");
  EXPECT_EQ(packets[0].dgram.src, kOutA);
  EXPECT_EQ(packets[0].dgram.dst, kInB);
}

TEST(PcapReader, SkipsNonUdpTrafficWithAccounting) {
  std::string file = GlobalHeader(1);
  AddRecord(file, 1, 0, EthFrame(0x0806, "arp-ish"));  // non-IP ethertype
  AddRecord(file, 1, 100, EthFrame(0x0800, Ipv4Packet(kOutA, kInB, "tcp!",
                                                      /*proto=*/6)));
  AddRecord(file, 1, 200,
            EthFrame(0x0800, Ipv4Packet(kOutA, kInB, "frag",
                                        /*proto=*/17, /*frag=*/0x2000)));
  AddRecord(file, 1, 300, "short");  // runt: cut inside the Ethernet header
  AddRecord(file, 1, 400,
            EthFrame(0x0800, Ipv4Packet(kOutA, kInB, "jumbo", /*proto=*/17,
                                        /*frag=*/0x4000,
                                        /*udp_len=*/65535)));  // > 65507
  AddRecord(file, 1, 500, EthFrame(0x0800, Ipv4Packet(kOutA, kInB, "good")));

  PcapFileSource source(file);
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(packets[0].dgram.payload, "good");
  const PcapStats& stats = source.stats();
  EXPECT_EQ(stats.records, 6u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.skipped_non_ip, 1u);
  EXPECT_EQ(stats.skipped_non_udp, 1u);
  EXPECT_EQ(stats.skipped_fragment, 1u);
  EXPECT_EQ(stats.skipped_malformed, 2u);  // runt + impossible UDP length
}

TEST(PcapReader, BackwardTimestampClampsToStreamClock) {
  PcapWriter writer;
  writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(5),
             Dg(kOutA, kInB, "first"));
  writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(1),
             Dg(kOutA, kInB, "jitter"));
  PcapFileSource source(writer.bytes());
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 2u);
  // Rebase puts the first packet at t=0; the rewound second packet clamps
  // to the stream clock instead of going negative.
  EXPECT_EQ(packets[0].when.nanos(), 0);
  EXPECT_EQ(packets[1].when.nanos(), 0);
  EXPECT_EQ(source.clock().nanos(), 0);
}

TEST(PcapReader, RebaseDisabledKeepsAbsoluteEpoch) {
  PcapWriter writer;  // epoch_base_s = 1'600'000'000
  writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(5),
             Dg(kOutA, kInB, "x"));
  PcapReadOptions read;
  read.rebase_to_first = false;
  PcapFileSource source(writer.bytes(), read);
  const auto packets = AllPackets(source);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].when.nanos(),
            1'600'000'000LL * 1'000'000'000LL + 5'000'000LL);
}

// -------------------------------------------------------------- corpus

std::map<std::string, int> ReplayClassifications(const std::string& bytes,
                                                 int shards) {
  PcapReadOptions read;
  read.inside = corpus::InsideSubnet();
  PcapFileSource source(bytes, read);
  std::map<std::string, int> counts;
  if (shards > 0) {
    ids::ShardedConfig config;
    config.shards = shards;
    ids::ShardedIds engine(config);
    const ReplayStats replay = RunSource(source, engine);
    engine.Stop();
    EXPECT_TRUE(replay.ok);
    for (const auto& alert : engine.alerts()) ++counts[alert.classification];
  } else {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    const ReplayStats replay = RunSource(source, vids, scheduler);
    EXPECT_TRUE(replay.ok);
    for (const auto& alert : vids.alerts()) ++counts[alert.classification];
  }
  return counts;
}

TEST(Corpus, RegenerationIsByteDeterministic) {
  const auto first = corpus::BuildAll();
  const auto second = corpus::BuildAll();
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].bytes, second[i].bytes) << first[i].name;
  }
}

TEST(Corpus, CleanCallsRaiseNoAlerts) {
  const auto files = corpus::BuildAll();
  ASSERT_EQ(files[0].name, "clean_calls.pcap");
  PcapReadOptions read;
  read.inside = corpus::InsideSubnet();
  PcapFileSource source(files[0].bytes, read);
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  const ReplayStats replay = RunSource(source, vids, scheduler);
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.packets, source.stats().delivered);
  EXPECT_EQ(source.stats().delivered, source.stats().records);
  EXPECT_GT(replay.packets, 0u);
  EXPECT_EQ(replay.end, source.clock());
  EXPECT_TRUE(vids.alerts().empty());
}

TEST(Corpus, InviteFloodRaisesExactlyOneAggregateAlert) {
  const auto files = corpus::BuildAll();
  ASSERT_EQ(files[1].name, "invite_flood.pcap");
  // The flood capture is big-endian microsecond on purpose: the
  // byte-swapped reader path rides through this test and CI.
  PcapFileSource probe(files[1].bytes);
  EXPECT_TRUE(probe.swapped());
  EXPECT_FALSE(probe.nanosecond());

  const auto counts = ReplayClassifications(files[1].bytes, 0);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("INVITE flood"), 1);
}

TEST(Corpus, TornCorpusFailsClosedPerPacket) {
  const auto files = corpus::BuildAll();
  ASSERT_EQ(files[2].name, "torn_truncated.pcap");
  PcapReadOptions read;
  read.inside = corpus::InsideSubnet();
  PcapFileSource source(files[2].bytes, read);
  const auto packets = AllPackets(source);
  EXPECT_TRUE(source.ok()) << source.error();
  EXPECT_EQ(packets.size(), 21u);  // VLAN-tagged frames all decode

  const auto counts = ReplayClassifications(files[2].bytes, 0);
  // The snaplen-torn INVITE, the Content-Length overrun and the compact-
  // form unterminated message fail closed as unparsable; the clean call,
  // the LF-framed OPTIONS, the truncated RTP and the runts raise nothing.
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("unparsable packet"), 3);
}

// Each behavioral capture is protocol-legal end to end: the spec machines
// and attack patterns must stay silent while the behavior profiles raise
// exactly one scored alert. This asymmetry — detected by profiling, clean
// by specification — is the behavioral layer's acceptance gate.
TEST(Corpus, BehavioralCapturesRaiseExactlyOneBehaviorAlert) {
  const auto files = corpus::BuildAll();
  const std::map<std::string, std::string> expected = {
      {"spit_burst.pcap", "SPIT call burst"},
      {"reg_cracking.pcap", "registration cracking"},
      {"toll_fraud.pcap", "toll-fraud fan-out"},
  };
  int covered = 0;
  for (const auto& file : files) {
    const auto it = expected.find(file.name);
    if (it == expected.end()) continue;
    ++covered;
    PcapReadOptions read;
    read.inside = corpus::InsideSubnet();
    PcapFileSource source(file.bytes, read);
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    const ReplayStats replay = RunSource(source, vids, scheduler);
    EXPECT_TRUE(replay.ok);
    ASSERT_EQ(vids.alerts().size(), 1u) << file.name;
    const ids::Alert& alert = vids.alerts().front();
    EXPECT_EQ(alert.kind, ids::AlertKind::kBehavior) << file.name;
    EXPECT_EQ(alert.classification, it->second) << file.name;
    EXPECT_EQ(alert.machine, "behavior-profile") << file.name;
    // Score provenance: the detail carries the per-feature breakdown.
    EXPECT_NE(alert.detail.find("score="), std::string::npos) << alert.detail;
  }
  EXPECT_EQ(covered, 3);
}

TEST(Corpus, AlertEqualityAcrossShardCounts) {
  for (const auto& file : corpus::BuildAll()) {
    const auto direct = ReplayClassifications(file.bytes, 0);
    const auto one = ReplayClassifications(file.bytes, 1);
    const auto four = ReplayClassifications(file.bytes, 4);
    EXPECT_EQ(direct, one) << file.name;
    EXPECT_EQ(direct, four) << file.name;
  }
}

// ------------------------------------------- torn-packet parser hardening

TEST(TornPackets, EveryCorpusPayloadPrefixIndexesWithinBounds) {
  // Every prefix of every corpus payload through the lazy index: the
  // sanitizer jobs turn any read past the datagram end into a hard fail,
  // and the views a successful index returns must stay inside the prefix.
  for (const auto& file : corpus::BuildAll()) {
    PcapFileSource source(file.bytes);
    for (const auto& packet : AllPackets(source)) {
      const std::string& payload = packet.dgram.payload;
      for (size_t len = 0; len <= payload.size(); ++len) {
        const std::string_view prefix(payload.data(), len);
        sip::LazyMessage lazy;
        if (!lazy.Index(prefix)) continue;
        EXPECT_LE(lazy.body().size(), len);
        if (const auto call_id = lazy.CallId()) {
          EXPECT_LE(call_id->size(), len);
        }
      }
    }
  }
}

TEST(TornPackets, TornCorpusPrefixesInspectCleanly) {
  const auto files = corpus::BuildAll();
  PcapFileSource source(files[2].bytes);
  const auto packets = AllPackets(source);
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  sim::Time now = sim::Time::FromNanos(0);
  for (const auto& packet : packets) {
    for (size_t len = 0; len <= packet.dgram.payload.size(); len += 7) {
      now = now + sim::Duration::Millis(1);
      scheduler.RunUntil(now);
      net::Datagram torn = packet.dgram;
      torn.payload.resize(len);
      torn.padding_bytes = static_cast<uint32_t>(
          packet.dgram.payload.size() - len + packet.dgram.padding_bytes);
      vids.Inspect(torn, packet.from_outside);
    }
  }
  // No crash and no unbounded alert storm: at most one alert per inspect.
  EXPECT_LE(vids.alerts().size(), 2000u);
}

// --------------------------------------- sharded replay clock domains

std::string WdMessage(std::string_view kind, const std::string& call_id) {
  auto build = [&](sip::Message message, bool add_to_tag) {
    sip::Via via;
    via.sent_by = kOutA;
    via.branch = "z9hG4bK" + call_id + std::string(kind);
    message.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-" + call_id);
    message.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    if (add_to_tag) to.SetTag("tag-callee");
    message.SetTo(to);
    message.SetCallId(call_id);
    return message;
  };
  if (kind == "invite") {
    auto invite = build(
        sip::Message::MakeRequest(
            sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com")),
        false);
    invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
    return invite.Serialize();
  }
  if (kind == "ok") {
    auto ok = build(sip::Message::MakeResponse(200), true);
    ok.SetCseq(sip::CSeq{1, sip::Method::kInvite});
    return ok.Serialize();
  }
  auto ack = build(
      sip::Message::MakeRequest(sip::Method::kAck,
                                *sip::SipUri::Parse("sip:bob@b.example.com")),
      true);
  ack.SetCseq(sip::CSeq{1, sip::Method::kAck});
  return ack.Serialize();
}

TEST(ShardedReplayClock, CaptureGapUnderFastReplayDoesNotTripWatchdog) {
  // An established call keeps the fact base's sweep chain armed, then the
  // capture goes quiet for 8 simulated hours. Replay covers that gap in
  // microseconds of wall time; the worker has ~144k sweep timers to burn
  // through while the coordinator's watchdog (60 ms threshold) polls. The
  // sliced catch-up heartbeats plus the source-time re-anchor must keep
  // this scored as replay progress, not a wedged worker.
  ids::DetectionConfig detection;
  detection.sweep_interval = sim::Duration::Millis(200);
  detection.call_idle_timeout = sim::Duration::Seconds(24 * 3600);

  ids::ShardedConfig config;
  config.shards = 1;
  config.watchdog_stall_ms = 60;
  config.detection = detection;
  ids::ShardedIds engine(config);

  PcapWriter writer;
  const auto at = [](int64_t ms) {
    return sim::Time::FromNanos(0) + sim::Duration::Millis(ms);
  };
  writer.Add(at(0), Dg(kOutA, kInB, WdMessage("invite", "wd-1")));
  writer.Add(at(20), Dg(kInB, kOutA, WdMessage("ok", "wd-1")));
  writer.Add(at(40), Dg(kOutA, kInB, WdMessage("ack", "wd-1")));
  const int64_t gap_ms = 8 * 3600 * 1000;
  writer.Add(at(gap_ms), Dg(kOutA, kInB, "post-gap probe"));
  PcapFileSource source(writer.bytes());

  const ReplayStats replay = RunSource(source, engine);
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.packets, 4u);
  EXPECT_EQ(engine.watchdog_stalls(), 0u);

  // Guard against vacuity: the worker really did sweep its way across the
  // gap (so a monolithic catch-up would have frozen the heartbeat for the
  // whole stretch).
  auto merged = engine.MergedMetrics();
  EXPECT_GE(merged.GetCounter("vids.sweeps").value(),
            static_cast<uint64_t>(gap_ms / 200 - 10));
  engine.Stop();
}

TEST(ShardedReplayClock, SourceTimeDeadlineFlushesOpenBatch) {
  // Two packets 10 ms apart in *source* time land within microseconds of
  // wall time. The batch deadline must bind in the source domain: the
  // second Ingest sees the batch open past kBatchFlushMicros of stream
  // time and commits it, wall clock notwithstanding. Two packets stay
  // below kBatchMax, so only the deadline can commit.
  ids::ShardedConfig config;
  config.shards = 1;
  ids::ShardedIds engine(config);

  engine.Ingest(Dg(kOutA, kInB, "a"), true, sim::Time::FromNanos(0));
  engine.Ingest(Dg(kOutA, kInB, "b"), true,
                sim::Time::FromNanos(0) + sim::Duration::Millis(10));
  engine.Flush(sim::Time::FromNanos(0) + sim::Duration::Millis(10));
  auto merged = engine.MergedMetrics();
  EXPECT_GE(merged.GetCounter("pipeline.flush.deadline").value(), 1u);
  engine.Stop();
}

}  // namespace
}  // namespace vids::capture
