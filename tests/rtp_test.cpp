#include <gtest/gtest.h>

#include "net/host.h"
#include "net/network.h"
#include "rtp/packet.h"
#include "rtp/session.h"

namespace vids::rtp {
namespace {

TEST(RtpHeader, SerializeParseRoundTrip) {
  RtpHeader header;
  header.marker = true;
  header.payload_type = 18;
  header.sequence_number = 0xBEEF;
  header.timestamp = 0xDEADBEEF;
  header.ssrc = 0x12345678;
  const std::string wire = header.Serialize();
  ASSERT_EQ(wire.size(), kRtpHeaderSize);
  const auto parsed = RtpHeader::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, header);
}

TEST(RtpHeader, ParseRejectsShortOrWrongVersion) {
  EXPECT_FALSE(RtpHeader::Parse("short").has_value());
  std::string wire = RtpHeader{}.Serialize();
  wire[0] = 0x40;  // version 1
  EXPECT_FALSE(RtpHeader::Parse(wire).has_value());
}

TEST(RtpHeader, FlagBitsRoundTrip) {
  RtpHeader header;
  header.padding = true;
  header.extension = true;
  header.csrc_count = 5;
  const auto parsed = RtpHeader::Parse(header.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->padding);
  EXPECT_TRUE(parsed->extension);
  EXPECT_EQ(parsed->csrc_count, 5);
}

TEST(SeqMath, WrapAwareDistances) {
  EXPECT_EQ(SeqDistance(10, 11), 1);
  EXPECT_EQ(SeqDistance(11, 10), -1);
  EXPECT_EQ(SeqDistance(65535, 0), 1);    // wraparound forward
  EXPECT_EQ(SeqDistance(0, 65535), -1);   // wraparound backward
  EXPECT_EQ(SeqDistance(0, 30000), 30000);
  EXPECT_EQ(TimestampDistance(0xFFFFFFFF, 0), 1);
  EXPECT_EQ(TimestampDistance(0, 0xFFFFFFFF), -1);
  EXPECT_EQ(TimestampDistance(100, 900), 800);
}

TEST(Codec, G729Profile) {
  const auto codec = G729();
  EXPECT_EQ(codec.payload_type, 18);
  EXPECT_EQ(codec.frame_interval, sim::Duration::Millis(10));
  EXPECT_EQ(codec.bytes_per_frame, 10u);
  EXPECT_EQ(codec.TimestampStep(), 80u);  // 8 kHz × 10 ms
  EXPECT_DOUBLE_EQ(codec.BitRate(), 8000.0);
}

TEST(Codec, PcmuProfile) {
  const auto codec = Pcmu();
  EXPECT_EQ(codec.payload_type, 0);
  EXPECT_EQ(codec.TimestampStep(), 160u);
  EXPECT_DOUBLE_EQ(codec.BitRate(), 64000.0);
}

// ------------------------------------------------------------- sessions

class SessionFixture : public ::testing::Test {
 protected:
  SessionFixture()
      : network_(scheduler_, 3),
        rng_(3, "test"),
        host_a_(network_.AddNode<net::Host>(network_, "a",
                                            net::IpAddress(10, 0, 0, 1))),
        host_b_(network_.AddNode<net::Host>(network_, "b",
                                            net::IpAddress(10, 0, 0, 2))) {
    auto [a_to_b, b_to_a] =
        network_.ConnectDuplex(host_a_, host_b_, net::FastEthernet());
    host_a_.SetUplink(a_to_b);
    host_b_.SetUplink(b_to_a);
  }

  MediaSession::Config ConfigFor(uint16_t local, net::IpAddress remote_ip,
                                 uint16_t remote_port, bool vad) {
    MediaSession::Config config;
    config.local_port = local;
    config.remote = net::Endpoint{remote_ip, remote_port};
    config.codec = G729();
    config.talkspurt.enabled = vad;
    return config;
  }

  sim::Scheduler scheduler_;
  net::Network network_;
  common::Stream rng_;
  net::Host& host_a_;
  net::Host& host_b_;
};

TEST_F(SessionFixture, ConstantBitrateStreamDelivers100PacketsPerSecond) {
  MediaSession sender(scheduler_, host_a_,
                      ConfigFor(20000, host_b_.ip(), 20002, /*vad=*/false),
                      rng_);
  MediaSession receiver(scheduler_, host_b_,
                        ConfigFor(20002, host_a_.ip(), 20000, /*vad=*/false),
                        rng_);
  sender.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(10));
  sender.Stop();
  scheduler_.Run();  // drain in-flight packets
  // 10 ms frames → 100 pps. (+1 for the packet at t=0.)
  EXPECT_NEAR(static_cast<double>(sender.packets_sent()), 1001.0, 2.0);
  const auto& stats = receiver.receiver_stats();
  EXPECT_EQ(stats.packets_received, sender.packets_sent());
  EXPECT_EQ(stats.packets_lost, 0u);
  EXPECT_EQ(stats.ssrc_mismatches, 0u);
  // LAN delay only: well under a millisecond, near-zero jitter.
  EXPECT_LT(stats.MeanDelaySeconds(), 0.001);
  EXPECT_LT(stats.jitter_seconds, 0.0005);
}

TEST_F(SessionFixture, VadReducesPacketRate) {
  MediaSession sender(scheduler_, host_a_,
                      ConfigFor(20000, host_b_.ip(), 20002, /*vad=*/true),
                      rng_);
  sender.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(60));
  sender.Stop();
  // Activity factor ≈ 1.004/(1.004+1.587) ≈ 0.39 → ~39 pps on average.
  const double pps = static_cast<double>(sender.packets_sent()) / 60.0;
  EXPECT_GT(pps, 15.0);
  EXPECT_LT(pps, 70.0);
}

TEST_F(SessionFixture, TalkspurtsSetMarkerAndJumpTimestamp) {
  MediaSession sender(scheduler_, host_a_,
                      ConfigFor(20000, host_b_.ip(), 20002, /*vad=*/true),
                      rng_);
  std::vector<RtpHeader> headers;
  host_b_.BindUdp(20002, [&](const net::Datagram& dgram) {
    if (auto header = RtpHeader::Parse(dgram.payload)) {
      headers.push_back(*header);
    }
  });
  sender.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(30));
  sender.Stop();
  ASSERT_GT(headers.size(), 100u);
  EXPECT_TRUE(headers.front().marker);  // first packet of first spurt
  int markers = 0;
  bool saw_ts_jump_at_marker = false;
  for (size_t i = 1; i < headers.size(); ++i) {
    // Sequence numbers are continuous even across silence...
    EXPECT_EQ(SeqDistance(headers[i - 1].sequence_number,
                          headers[i].sequence_number),
              1);
    if (headers[i].marker) {
      ++markers;
      // ...but the timestamp leaps over the silent gap.
      if (TimestampDistance(headers[i - 1].timestamp, headers[i].timestamp) >
          80) {
        saw_ts_jump_at_marker = true;
      }
    }
  }
  EXPECT_GT(markers, 2);
  EXPECT_TRUE(saw_ts_jump_at_marker);
}

TEST_F(SessionFixture, ReceiverCountsAlienSsrc) {
  MediaSession receiver(scheduler_, host_b_,
                        ConfigFor(20002, host_a_.ip(), 20000, /*vad=*/false),
                        rng_);
  auto send = [&](uint32_t ssrc, uint16_t seq) {
    RtpHeader header;
    header.ssrc = ssrc;
    header.sequence_number = seq;
    host_a_.SendUdp(20000, net::Endpoint{host_b_.ip(), 20002},
                    header.Serialize(), 10);
  };
  send(111, 1);
  send(111, 2);
  send(222, 3);  // alien SSRC
  scheduler_.Run();
  EXPECT_EQ(receiver.receiver_stats().packets_received, 3u);
  EXPECT_EQ(receiver.receiver_stats().ssrc_mismatches, 1u);
}

TEST_F(SessionFixture, ReceiverCountsLossAndMisorder) {
  MediaSession receiver(scheduler_, host_b_,
                        ConfigFor(20002, host_a_.ip(), 20000, /*vad=*/false),
                        rng_);
  auto send = [&](uint16_t seq) {
    RtpHeader header;
    header.ssrc = 7;
    header.sequence_number = seq;
    host_a_.SendUdp(20000, net::Endpoint{host_b_.ip(), 20002},
                    header.Serialize(), 10);
  };
  send(1);
  send(2);
  send(5);  // 3, 4 lost
  send(4);  // late arrival → misordered
  scheduler_.Run();
  const auto& stats = receiver.receiver_stats();
  EXPECT_EQ(stats.packets_received, 4u);
  EXPECT_EQ(stats.packets_lost, 2u);
  EXPECT_EQ(stats.packets_misordered, 1u);
}

TEST_F(SessionFixture, QosSamplesAreRecorded) {
  auto config = ConfigFor(20002, host_a_.ip(), 20000, /*vad=*/false);
  config.sample_every = 10;
  MediaSession receiver(scheduler_, host_b_, config, rng_);
  MediaSession sender(scheduler_, host_a_,
                      ConfigFor(20000, host_b_.ip(), 20002, /*vad=*/false),
                      rng_);
  sender.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(2));
  sender.Stop();
  EXPECT_NEAR(static_cast<double>(receiver.samples().size()), 20.0, 2.0);
  for (const auto& sample : receiver.samples()) {
    EXPECT_GT(sample.delay_seconds, 0.0);
  }
}

TEST_F(SessionFixture, StopHaltsTransmission) {
  MediaSession sender(scheduler_, host_a_,
                      ConfigFor(20000, host_b_.ip(), 20002, /*vad=*/false),
                      rng_);
  sender.Start();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(1));
  sender.Stop();
  const auto sent = sender.packets_sent();
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(2));
  EXPECT_EQ(sender.packets_sent(), sent);
}

}  // namespace
}  // namespace vids::rtp
