// Tests for the capture front end (DESIGN.md §14): the pcap reader/writer
// pair and its pull-batch contract, the streaming file reader against the
// in-memory one, the corpus generator, the RunSource replay driver, the
// sharded engine's clock-domain hardening under faster-than-real-time
// replay, and plain-vs-sharded agreement on corpus captures mutated across
// the protocol-dispatch boundaries.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capture/corpus.h"
#include "capture/pcap.h"
#include "capture/replay.h"
#include "common/rng.h"
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
  const std::string binary("\x80\x12\0\0\0\0\0\0\0\0\0\0", 12);
  for (const bool big_endian : {false, true}) {
    for (const bool nanosecond : {false, true}) {
      PcapWriteOptions write;
      write.big_endian = big_endian;
      write.nanosecond = nanosecond;
      PcapWriter writer(write);
      // Microsecond-aligned times so the µs variants round-trip losslessly.
      writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "hello"));
      writer.Add(sim::Time::FromNanos(0) + sim::Duration::Millis(1),
                 Dg(kInB, kOutA, binary));
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
      EXPECT_EQ(packets[1].dgram.payload, binary);
      EXPECT_EQ(packets[2].dgram.payload, "world");
      EXPECT_EQ(packets[0].dgram.src, kOutA);
      EXPECT_EQ(packets[0].dgram.dst, kInB);
      EXPECT_TRUE(packets[0].from_outside);   // src 10.1.0.1 is outside
      EXPECT_FALSE(packets[1].from_outside);  // src 10.2.0.1 is inside
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

TEST(PcapRoundTrip, WriterRefusesDatagramPastUdpMaximum) {
  // 4 + 65,504 bytes is one past what UDP/IPv4 carries: its 16-bit
  // lengths would wrap. Add refuses it without writing a byte, and the
  // datagrams on either side still read back from a clean file.
  PcapWriter writer;
  EXPECT_TRUE(writer.Add(sim::Time::FromNanos(0), Dg(kOutA, kInB, "before")));
  const size_t size_before = writer.bytes().size();
  EXPECT_FALSE(
      writer.Add(sim::Time::FromNanos(10), Dg(kOutA, kInB, "abcd", 65504)));
  EXPECT_EQ(writer.bytes().size(), size_before);
  EXPECT_TRUE(writer.Add(sim::Time::FromNanos(20), Dg(kInB, kOutA, "after")));
  PcapFileSource source(writer.bytes());
  const auto packets = AllPackets(source);
  EXPECT_TRUE(source.ok()) << source.error();
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].dgram.payload, "before");
  EXPECT_EQ(packets[1].dgram.payload, "after");
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

// ---------------------------------------------------- streaming reader
// Open(path) streams a file through one window; the in-memory constructor
// holds every byte. Both must read any byte string the same way.

struct Drained {
  std::vector<TimedPacket> packets;
  PcapStats stats;
  int64_t clock_ns = 0;
  bool ok = false;
  std::string error;
};

Drained Drain(PcapFileSource& source) {
  Drained out;
  out.packets = AllPackets(source);
  out.stats = source.stats();
  out.clock_ns = source.clock().nanos();
  out.ok = source.ok();
  out.error = source.error();
  return out;
}

// The first difference between two drains, or "" when they agree.
std::string FirstDifference(const Drained& want, const Drained& got) {
  if (want.ok != got.ok || want.error != got.error) {
    return "error '" + want.error + "' vs '" + got.error + "'";
  }
  if (want.stats != got.stats) return "stats";
  if (want.clock_ns != got.clock_ns) return "clock";
  if (want.packets.size() != got.packets.size()) {
    return std::to_string(want.packets.size()) + " packets vs " +
           std::to_string(got.packets.size());
  }
  for (size_t i = 0; i < want.packets.size(); ++i) {
    const TimedPacket& a = want.packets[i];
    const TimedPacket& b = got.packets[i];
    if (a.when != b.when || a.from_outside != b.from_outside ||
        a.dgram.src != b.dgram.src || a.dgram.dst != b.dgram.dst ||
        a.dgram.payload != b.dgram.payload ||
        a.dgram.padding_bytes != b.dgram.padding_bytes) {
      return "packet " + std::to_string(i);
    }
  }
  return "";
}

std::string StreamTempPath() {
  static int next = 0;
  return testing::TempDir() + "pcap_stream_" + std::to_string(::getpid()) +
         "_" + std::to_string(next++);
}

// Drains `bytes` written to a regular file, whose size bounds each record.
Drained DrainFile(const std::string& bytes) {
  const std::string path = StreamTempPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  const auto source = PcapFileSource::Open(path);
  Drained out = Drain(*source);
  std::remove(path.c_str());
  return out;
}

// Drains `bytes` fed through a FIFO, where the reader learns the size only
// at end of file.
Drained DrainFifo(const std::string& bytes) {
  const std::string path = StreamTempPath();
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
  // A reader that stops at a fault closes its end; the writer then gets
  // EPIPE rather than a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&path, &bytes] {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    for (size_t at = 0; fd >= 0 && at < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
      if (n <= 0) break;
      at += static_cast<size_t>(n);
    }
    if (fd >= 0) ::close(fd);
  });
  auto source = PcapFileSource::Open(path);
  Drained out = Drain(*source);
  source.reset();
  writer.join();
  std::remove(path.c_str());
  return out;
}

// A capture of at least three windows: payloads of 0 to 1,500 bytes, some
// torn, and every 500th the largest a UDP datagram carries, so records
// straddle every window boundary. Big-endian, µs and VLAN-tagged, unlike
// the writer's defaults.
std::string MultiWindowCapture(common::Stream& rng) {
  PcapWriteOptions options;
  options.big_endian = true;
  options.nanosecond = false;
  options.vlan = true;
  PcapWriter writer(options);
  sim::Time at;
  for (uint32_t i = 0;
       writer.bytes().size() < 3 * PcapFileSource::kWindowBytes + 4096; ++i) {
    std::string payload(i % 500 == 499 ? 65'507 : rng.NextInRange(0, 1500),
                        '\0');
    for (size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<char>(i * 131 + b * 7);
    }
    const auto padding = static_cast<uint32_t>(
        rng.NextInRange(0, 7) == 0 && payload.size() <= 1500
            ? rng.NextInRange(1, 300)
            : 0);
    at = at + sim::Duration::Micros(static_cast<int64_t>(
                  rng.NextInRange(0, 2000)));
    writer.Add(at, Dg(i % 2 == 0 ? kOutA : kInB, i % 2 == 0 ? kInB : kOutA,
                      std::move(payload), padding));
  }
  return writer.bytes();
}

void PutU32At(std::string& bytes, size_t pos, uint32_t v, bool big_endian) {
  for (int i = 0; i < 4; ++i) {
    const int shift = big_endian ? 24 - 8 * i : 8 * i;
    bytes[pos + i] = static_cast<char>((v >> shift) & 0xFF);
  }
}

// One seeded framing fault: a truncation, a rewritten incl_len or
// orig_len, or broken magic or linktype bytes.
void MutateFraming(std::string& bytes, const std::vector<size_t>& records,
                   bool big_endian, common::Stream& rng) {
  const uint64_t fault = rng.NextInRange(0, 4);
  switch (fault) {
    case 0:  // truncation, now and then inside the global header
      bytes.resize(rng.NextInRange(0, 3) == 0
                       ? rng.NextInRange(0, 24)
                       : rng.NextInRange(0, bytes.size()));
      return;
    case 1:    // incl_len
    case 2: {  // orig_len
      if (records.empty()) return;
      const size_t pos = records[rng.NextInRange(0, records.size() - 1)] +
                         (fault == 1 ? 8 : 12);
      if (pos + 4 > bytes.size()) return;
      const uint32_t values[] = {0,          13,
                                 1500,       65'597,
                                 65'598,     2'000'000,
                                 0x7FFF'FFFF, 0xFFFF'FFFF,
                                 static_cast<uint32_t>(rng.Next())};
      PutU32At(bytes, pos, values[rng.NextInRange(0, 8)], big_endian);
      return;
    }
    case 3:  // magic
      if (bytes.size() >= 4) {
        bytes[rng.NextInRange(0, 3)] = static_cast<char>(rng.Next());
      }
      return;
    default: {  // linktype
      if (bytes.size() < 24) return;
      const uint32_t values[] = {0, 1, 101, 113,
                                 static_cast<uint32_t>(rng.Next())};
      PutU32At(bytes, 20, values[rng.NextInRange(0, 4)], big_endian);
      return;
    }
  }
}

// Offsets of the record headers in a well-formed capture.
std::vector<size_t> RecordOffsets(const std::string& bytes, bool big_endian) {
  std::vector<size_t> out;
  for (size_t pos = 24; pos + 16 <= bytes.size();) {
    out.push_back(pos);
    uint32_t incl_len = 0;
    for (int i = 0; i < 4; ++i) {
      const int shift = big_endian ? 24 - 8 * i : 8 * i;
      incl_len |= static_cast<uint32_t>(
                      static_cast<uint8_t>(bytes[pos + 8 + i]))
                  << shift;
    }
    pos += 16 + incl_len;
  }
  return out;
}

// PCAP_STREAM_CASES sets the case count (default 700, about 1 s in a
// Release build); the nightly lane runs 100x. Each case is one of the
// bases (the multi-window capture or a corpus capture), clean or with one
// or two framing faults; every fourth case is fed through a FIFO, the rest
// through a regular file.
TEST(PcapStream, FileMatchesMemory) {
  const char* env = std::getenv("PCAP_STREAM_CASES");
  const int cases = env != nullptr ? std::max(1, std::atoi(env)) : 700;
  common::Stream rng(25, "pcap-stream");
  struct Base {
    std::string name;
    std::string bytes;
    bool big_endian = false;
    std::vector<size_t> records;
  };
  std::vector<Base> bases;
  bases.push_back({"multi-window", MultiWindowCapture(rng), false, {}});
  ASSERT_GE(bases[0].bytes.size(), 3 * PcapFileSource::kWindowBytes);
  for (auto& file : corpus::BuildAll()) {
    bases.push_back({file.name, std::move(file.bytes), false, {}});
  }
  for (Base& base : bases) {
    base.big_endian = PcapFileSource(base.bytes).swapped();
    base.records = RecordOffsets(base.bytes, base.big_endian);
  }

  int mismatches = 0;
  int fifo_cases = 0;
  int faulted = 0;
  for (int c = 0; c < cases; ++c) {
    // A third of the cases on the multi-window capture.
    const Base& base =
        bases[rng.NextInRange(0, 2) == 0 ? 0
                                         : rng.NextInRange(1, bases.size() - 1)];
    std::string bytes = base.bytes;
    for (uint64_t n = rng.NextInRange(0, 2); n > 0; --n) {
      MutateFraming(bytes, base.records, base.big_endian, rng);
    }
    PcapFileSource memory_source(bytes);
    const Drained memory = Drain(memory_source);
    const bool fifo = c % 4 == 3;
    fifo_cases += fifo ? 1 : 0;
    faulted += memory.ok ? 0 : 1;
    const Drained file = fifo ? DrainFifo(bytes) : DrainFile(bytes);
    const std::string difference = FirstDifference(memory, file);
    if (!difference.empty()) {
      ++mismatches;
      ADD_FAILURE() << "case " << c << " on " << base.name
                    << (fifo ? " through a FIFO" : "") << ": " << difference;
    }
  }
  std::printf("%d cases (%d through a FIFO, %d faulted), %d mismatches\n",
              cases, fifo_cases, faulted, mismatches);
}

TEST(PcapStream, LongRecordDecodesTheLargestFrame) {
  // The most a record's decoding reads: two VLAN tags, an IPv4 header with
  // 40 bytes of options and a 65,507-byte UDP payload, 65,597 bytes. A
  // trailer then makes the record three windows long, so the file reader
  // keeps the frame and reads past the rest; the next record must follow.
  std::string frame(12, static_cast<char>(0x02));
  PutBe16(frame, 0x88A8);
  PutBe16(frame, 10);
  PutBe16(frame, 0x8100);
  PutBe16(frame, 20);
  PutBe16(frame, 0x0800);
  frame += static_cast<char>(0x4F);  // version 4, IHL 15
  frame += '\0';
  PutBe16(frame, 0xFFFF);  // total length (the reader reads the UDP length)
  PutBe16(frame, 7);
  PutBe16(frame, 0x4000);
  frame += static_cast<char>(0x40);
  frame += static_cast<char>(17);
  PutBe16(frame, 0);
  PutBe32(frame, kOutA.ip.bits());
  PutBe32(frame, kInB.ip.bits());
  frame.append(40, static_cast<char>(0x01));  // NOP options
  PutBe16(frame, kOutA.port);
  PutBe16(frame, kInB.port);
  PutBe16(frame, 8 + 65'507);
  PutBe16(frame, 0);
  std::string payload(65'507, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 13);
  }
  frame += payload;
  ASSERT_EQ(frame.size(), 65'597u);
  frame.resize(3 * PcapFileSource::kWindowBytes, static_cast<char>(0xEE));
  std::string file = GlobalHeader(1);
  AddRecord(file, 1, 0, frame);
  AddRecord(file, 1, 10, EthFrame(0x0800, Ipv4Packet(kInB, kOutA, "after")));

  PcapFileSource memory_source(file);
  const Drained memory = Drain(memory_source);
  ASSERT_TRUE(memory.ok) << memory.error;
  ASSERT_EQ(memory.packets.size(), 2u);
  EXPECT_TRUE(memory.packets[0].dgram.payload == payload);
  EXPECT_EQ(memory.packets[0].dgram.padding_bytes, 0u);
  EXPECT_EQ(memory.packets[1].dgram.payload, "after");
  EXPECT_EQ(FirstDifference(memory, DrainFile(file)), "");
  EXPECT_EQ(FirstDifference(memory, DrainFifo(file)), "");
}

TEST(PcapStream, UnreadablePathFailsClosed) {
  for (const std::string& path :
       {testing::TempDir() + "pcap_stream_missing.pcap", testing::TempDir()}) {
    const auto source = PcapFileSource::Open(path);
    EXPECT_FALSE(source->ok());
    EXPECT_EQ(source->error(), "pcap: cannot read " + path);
    std::vector<TimedPacket> batch;
    EXPECT_EQ(source->PullBatch(batch, 4), 0u);
  }
}

// -------------------------------------------------------------- corpus

struct Replayed {
  std::vector<ids::Alert> alerts;
  // 600 s after the capture: the sharded engine's TrackedState(), the plain
  // engine's fact-base entries, alert signatures and behavior profiles.
  size_t tracked = 0;
  size_t flushes = 0;  // mid-stream Flush calls
};

// Replays `bytes` into a plain Vids (shards = 0) or into ShardedIds. With
// `flush_every` > 0 the sharded replay also calls Flush just before the
// instant of every flush_every-th packet, when that packet starts a new
// instant (post-Flush ingest must carry later times).
Replayed Replay(const std::string& bytes, int shards, size_t flush_every = 0) {
  PcapReadOptions read;
  read.inside = corpus::InsideSubnet();
  PcapFileSource source(bytes, read);
  Replayed out;
  if (shards > 0) {
    ids::ShardedConfig config;
    config.shards = shards;
    config.watchdog_stall_ms = 0;
    ids::ShardedIds engine(config);
    if (flush_every == 0) {
      EXPECT_TRUE(RunSource(source, engine).ok);
    } else {
      const std::vector<TimedPacket> packets = AllPackets(source);
      EXPECT_TRUE(source.ok());
      for (size_t i = 0; i < packets.size(); ++i) {
        if ((i + 1) % flush_every == 0 && i > 0 &&
            packets[i].when > packets[i - 1].when) {
          engine.Flush(packets[i].when - sim::Duration::Nanos(1));
          ++out.flushes;
        }
        engine.Ingest(packets[i].dgram, packets[i].from_outside,
                      packets[i].when);
      }
      engine.Flush(source.clock());
    }
    out.alerts = engine.alerts();
    engine.Flush(source.clock() + sim::Duration::Seconds(600));
    out.tracked = engine.TrackedState();
  } else {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    const ReplayStats replay = RunSource(source, vids, scheduler);
    EXPECT_TRUE(replay.ok);
    out.alerts = vids.alerts();
    scheduler.RunUntil(replay.end + sim::Duration::Seconds(600));
    const ids::CallStateFactBase& fb = vids.fact_base();
    out.tracked = fb.call_count() + fb.keyed_count() + fb.tombstone_count() +
                  fb.media_index_count() + vids.alert_sig_count() +
                  vids.behavior().profile_count();
  }
  return out;
}

std::map<std::string, int> DirectClassifications(const std::string& bytes) {
  std::map<std::string, int> counts;
  for (const auto& alert : Replay(bytes, 0).alerts) {
    ++counts[alert.classification];
  }
  return counts;
}

// Alerts as sorted (when, rendered text) pairs, without engine-health
// alerts: those report on the pipeline, not on the traffic.
std::vector<std::pair<int64_t, std::string>> Canonical(
    const std::vector<ids::Alert>& alerts) {
  std::vector<std::pair<int64_t, std::string>> out;
  for (const auto& alert : alerts) {
    if (alert.kind == ids::AlertKind::kEngineHealth) continue;
    out.emplace_back(alert.when.nanos(), alert.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Differential {
  int shard_mismatches = 0;  // shard counts that disagreed with plain
  int flush_mismatches = 0;  // flushing runs that disagreed with the run
                             // without
  size_t flushes = 0;        // mid-stream Flush calls made
};

// ShardedIds at 1 and 4 shards must raise the plain Vids's alerts, and
// every engine must drain all tracked state past the idle horizon. With
// `flush_every` > 0 one more 4-shard run flushes mid-stream (Replay) and
// must raise the same alerts as the 4-shard run without those flushes.
Differential ExpectEnginesAgree(const std::string& bytes,
                                const std::string& label,
                                size_t flush_every = 0) {
  const Replayed direct = Replay(bytes, 0);
  EXPECT_EQ(direct.tracked, 0u) << label << ", direct";
  Differential out;
  std::vector<std::pair<int64_t, std::string>> four;
  for (const int shards : {1, 4}) {
    const Replayed sharded = Replay(bytes, shards);
    EXPECT_EQ(sharded.tracked, 0u) << label << ", " << shards << " shards";
    if (Canonical(sharded.alerts) != Canonical(direct.alerts)) {
      ++out.shard_mismatches;
      ADD_FAILURE() << label << ": " << shards << " shards raised "
                    << sharded.alerts.size() << " alerts, direct "
                    << direct.alerts.size();
    }
    if (shards == 4) four = Canonical(sharded.alerts);
  }
  if (flush_every > 0) {
    const Replayed flushed = Replay(bytes, 4, flush_every);
    EXPECT_EQ(flushed.tracked, 0u) << label << ", flushing";
    out.flushes = flushed.flushes;
    if (Canonical(flushed.alerts) != four) {
      ++out.flush_mismatches;
      ADD_FAILURE() << label << ": 4 shards flushing every " << flush_every
                    << " packets raised " << flushed.alerts.size()
                    << " alerts, without the flushes " << four.size();
    }
  }
  return out;
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

  const auto counts = DirectClassifications(files[1].bytes);
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

  const auto counts = DirectClassifications(files[2].bytes);
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
    const Replayed replayed = Replay(file.bytes, 0);
    ASSERT_EQ(replayed.alerts.size(), 1u) << file.name;
    const ids::Alert& alert = replayed.alerts.front();
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
    ExpectEnginesAgree(file.bytes, file.name);
  }
}

// ------------------------------------ protocol dispatch on hostile bytes

// Rewrites the leading bytes of `payload` across one of the boundaries
// ids::DecideProto draws between RTCP, RTP, SIP and unknown bytes.
void CrossDispatchBoundary(std::string& payload, common::Stream& rng) {
  switch (rng.NextInRange(0, 3)) {
    case 0:  // ASCII first byte <-> RTP version bits
      if (payload.empty()) return;
      payload[0] = static_cast<char>(static_cast<uint8_t>(payload[0]) < 0x80
                                         ? rng.NextInRange(0x80, 0xBF)
                                         : rng.NextInRange('A', 'Z'));
      return;
    case 1:  // second byte in RTCP's packet-type range
      if (payload.size() >= 2) {
        payload[1] = static_cast<char>(rng.NextInRange(200, 204));
      }
      return;
    case 2:  // shorter than the RTCP header
      payload.resize(std::min<size_t>(payload.size(), rng.NextInRange(0, 7)));
      return;
    default:  // shorter than the RTP fixed header
      payload.resize(std::min<size_t>(payload.size(), rng.NextInRange(8, 11)));
      return;
  }
}

// The router and the shard-side classifier make one dispatch decision, so
// bytes crafted across its boundaries must not split the engines. Each
// seeded copy of a corpus capture mutates 1-4 packets. Routing must not
// depend on Flush either: a 4-shard run that flushes before every 64th
// packet must raise the alerts of the run that does not.
// DIFFERENTIAL_COPIES sets the copies per capture (default 32, about 1 s
// in a Release build); the nightly lane runs 3200.
TEST(DispatchDifferential, EnginesAgreeOnMutatedCorpus) {
  const char* env = std::getenv("DIFFERENTIAL_COPIES");
  const int copies = env != nullptr ? std::max(1, std::atoi(env)) : 32;
  Differential total;
  for (const auto& file : corpus::BuildAll()) {
    PcapFileSource source(file.bytes);
    const std::vector<TimedPacket> packets = AllPackets(source);
    ASSERT_FALSE(packets.empty()) << file.name;
    common::Stream rng(20, file.name);
    for (int copy = 0; copy < copies; ++copy) {
      std::vector<TimedPacket> mutated = packets;
      for (uint64_t n = rng.NextInRange(1, 4); n > 0; --n) {
        CrossDispatchBoundary(
            mutated[rng.NextInRange(0, mutated.size() - 1)].dgram.payload, rng);
      }
      PcapWriter writer;
      for (const auto& packet : mutated) writer.Add(packet.when, packet.dgram);
      const Differential copy_result = ExpectEnginesAgree(
          writer.bytes(), file.name + " copy " + std::to_string(copy),
          /*flush_every=*/64);
      total.shard_mismatches += copy_result.shard_mismatches;
      total.flush_mismatches += copy_result.flush_mismatches;
      total.flushes += copy_result.flushes;
    }
  }
  std::printf(
      "%d mutated copies per corpus capture, %d mismatches; %zu mid-stream "
      "flushes, %d mismatches with them\n",
      copies, total.shard_mismatches, total.flushes, total.flush_mismatches);
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

// ---------------------------------------------- sharded replay clock

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
  // heartbeat the worker stores per catch-up slice must keep this scored
  // as replay progress, not a wedged worker.
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

}  // namespace
}  // namespace vids::capture
