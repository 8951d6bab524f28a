#include <gtest/gtest.h>

#include "net/forwarder.h"
#include "net/host.h"
#include "net/inline_tap.h"
#include "net/network.h"

namespace vids::net {
namespace {

// ---------------------------------------------------------------- address

TEST(Address, ParseAndFormatRoundTrip) {
  const auto addr = IpAddress::Parse("10.1.0.255");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "10.1.0.255");
  EXPECT_EQ(*addr, IpAddress(10, 1, 0, 255));
  // Every octet width, first and last position included.
  IpAddress::FormatBuffer buf;
  for (int octet = 0; octet < 256; ++octet) {
    const std::string text = std::to_string(octet) + ".20.1." +
                             std::to_string(255 - octet);
    const auto parsed = IpAddress::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->Format(buf), text);
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::Parse("10.1.0").has_value());
  EXPECT_FALSE(IpAddress::Parse("10.1.0.256").has_value());
  EXPECT_FALSE(IpAddress::Parse("10.1.0.0.1").has_value());
  EXPECT_FALSE(IpAddress::Parse("ten.one.zero.one").has_value());
  EXPECT_FALSE(IpAddress::Parse("").has_value());
}

TEST(Address, SubnetContains) {
  const auto subnet = Subnet::Parse("10.2.0.0/16");
  ASSERT_TRUE(subnet.has_value());
  EXPECT_TRUE(subnet->Contains(IpAddress(10, 2, 3, 4)));
  EXPECT_FALSE(subnet->Contains(IpAddress(10, 3, 0, 1)));
  const Subnet all(IpAddress(0, 0, 0, 0), 0);
  EXPECT_TRUE(all.Contains(IpAddress(1, 2, 3, 4)));
  const Subnet host_route(IpAddress(10, 2, 0, 5), 32);
  EXPECT_TRUE(host_route.Contains(IpAddress(10, 2, 0, 5)));
  EXPECT_FALSE(host_route.Contains(IpAddress(10, 2, 0, 6)));
}

TEST(Address, EndpointParse) {
  const auto ep = Endpoint::Parse("10.1.0.5:5060");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->ip, IpAddress(10, 1, 0, 5));
  EXPECT_EQ(ep->port, 5060);
  EXPECT_FALSE(Endpoint::Parse("10.1.0.5").has_value());
  EXPECT_FALSE(Endpoint::Parse("10.1.0.5:99999").has_value());
}

// ------------------------------------------------------------------ fixture

class NetFixture : public ::testing::Test {
 protected:
  NetFixture() : network_(scheduler_, /*seed=*/1) {}

  sim::Scheduler scheduler_;
  Network network_;
};

// A node recording everything delivered to it.
class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void Receive(const Datagram& dgram) override { received.push_back(dgram); }
  std::vector<Datagram> received;
};

// -------------------------------------------------------------------- link

TEST_F(NetFixture, LinkDelaysBySerializationPlusPropagation) {
  auto& sink = network_.AddNode<SinkNode>("sink");
  // 1 Mb/s, 1 ms propagation: a 972-byte payload (1000B wire) takes 8 ms.
  LinkConfig config{.bandwidth_bps = 1'000'000,
                    .propagation = sim::Duration::Millis(1),
                    .loss_rate = 0.0};
  Link& link = network_.MakeLink("l", sink, config);
  Datagram d;
  d.payload = std::string(972, 'x');
  ASSERT_EQ(d.WireBytes(), 1000u);
  link.Send(d);
  scheduler_.Run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(scheduler_.Now(), sim::Time{} + sim::Duration::Millis(9));
}

TEST_F(NetFixture, LinkQueuesBackToBackPackets) {
  auto& sink = network_.AddNode<SinkNode>("sink");
  LinkConfig config{.bandwidth_bps = 1'000'000,
                    .propagation = sim::Duration{},
                    .loss_rate = 0.0};
  Link& link = network_.MakeLink("l", sink, config);
  Datagram d;
  d.payload = std::string(972, 'x');  // 8 ms each
  link.Send(d);
  link.Send(d);
  scheduler_.Run();
  ASSERT_EQ(sink.received.size(), 2u);
  // Second packet waits for the first to serialize: arrives at 16 ms.
  EXPECT_EQ(scheduler_.Now(), sim::Time{} + sim::Duration::Millis(16));
}

TEST_F(NetFixture, InfiniteBandwidthHasNoSerializationDelay) {
  auto& sink = network_.AddNode<SinkNode>("sink");
  LinkConfig config{.bandwidth_bps = 0,
                    .propagation = sim::Duration::Millis(50),
                    .loss_rate = 0.0};
  Link& link = network_.MakeLink("l", sink, config);
  Datagram d;
  d.payload = "x";
  link.Send(d);
  link.Send(d);
  scheduler_.Run();
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(scheduler_.Now(), sim::Time{} + sim::Duration::Millis(50));
}

TEST_F(NetFixture, LossRateDropsApproximatelyThatFraction) {
  auto& sink = network_.AddNode<SinkNode>("sink");
  LinkConfig config{.bandwidth_bps = 0,
                    .propagation = sim::Duration{},
                    .loss_rate = 0.2};
  Link& link = network_.MakeLink("lossy", sink, config);
  Datagram d;
  d.payload = "x";
  const int n = 10000;
  for (int i = 0; i < n; ++i) link.Send(d);
  scheduler_.Run();
  EXPECT_EQ(link.packets_sent() + link.packets_dropped(),
            static_cast<uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(link.packets_dropped()) / n, 0.2, 0.02);
}

// --------------------------------------------------------------- forwarder

TEST_F(NetFixture, ForwarderUsesLongestPrefixMatch) {
  auto& wide = network_.AddNode<SinkNode>("wide");
  auto& narrow = network_.AddNode<SinkNode>("narrow");
  auto& fallback = network_.AddNode<SinkNode>("default");
  auto& fwd = network_.AddNode<Forwarder>("fwd");
  Link& to_wide = network_.Connect(fwd, wide, FastEthernet());
  Link& to_narrow = network_.Connect(fwd, narrow, FastEthernet());
  Link& to_default = network_.Connect(fwd, fallback, FastEthernet());
  fwd.AddRoute(*Subnet::Parse("10.2.0.0/16"), to_wide);
  fwd.AddRoute(*Subnet::Parse("10.2.0.5/32"), to_narrow);
  fwd.SetDefaultRoute(to_default);

  Datagram d;
  d.dst = Endpoint{IpAddress(10, 2, 0, 5), 1};
  fwd.Receive(d);
  d.dst = Endpoint{IpAddress(10, 2, 9, 9), 1};
  fwd.Receive(d);
  d.dst = Endpoint{IpAddress(99, 9, 9, 9), 1};
  fwd.Receive(d);
  scheduler_.Run();
  EXPECT_EQ(narrow.received.size(), 1u);
  EXPECT_EQ(wide.received.size(), 1u);
  EXPECT_EQ(fallback.received.size(), 1u);
  EXPECT_EQ(fwd.packets_forwarded(), 3u);
}

TEST_F(NetFixture, ForwarderCountsUnroutable) {
  auto& fwd = network_.AddNode<Forwarder>("fwd");
  Datagram d;
  d.dst = Endpoint{IpAddress(1, 2, 3, 4), 1};
  fwd.Receive(d);
  EXPECT_EQ(fwd.packets_unroutable(), 1u);
}

// -------------------------------------------------------------------- host

TEST_F(NetFixture, HostDemuxesUdpByPort) {
  auto& host = network_.AddNode<Host>(network_, "h", IpAddress(10, 0, 0, 1));
  int on_5060 = 0, on_20000 = 0;
  host.BindUdp(5060, [&](const Datagram&) { ++on_5060; });
  host.BindUdp(20000, [&](const Datagram&) { ++on_20000; });

  Datagram d;
  d.dst = Endpoint{host.ip(), 5060};
  host.Receive(d);
  d.dst = Endpoint{host.ip(), 20000};
  host.Receive(d);
  d.dst = Endpoint{host.ip(), 9};  // unbound
  host.Receive(d);
  d.dst = Endpoint{IpAddress(9, 9, 9, 9), 5060};  // not our address
  host.Receive(d);
  EXPECT_EQ(on_5060, 1);
  EXPECT_EQ(on_20000, 1);
  EXPECT_EQ(host.datagrams_received(), 2u);
  EXPECT_EQ(host.datagrams_dropped(), 2u);
}

TEST_F(NetFixture, HostStampsSendTimeAndId) {
  auto& a = network_.AddNode<Host>(network_, "a", IpAddress(10, 0, 0, 1));
  auto& b = network_.AddNode<Host>(network_, "b", IpAddress(10, 0, 0, 2));
  auto [ab, ba] = network_.ConnectDuplex(a, b, FastEthernet());
  (void)ba;
  a.SetUplink(ab);  // a's uplink delivers into b
  std::vector<Datagram> got;
  b.BindUdp(7, [&](const Datagram& d) { got.push_back(d); });

  scheduler_.ScheduleAfter(sim::Duration::Millis(3), [&] {
    a.SendUdp(5060, Endpoint{b.ip(), 7}, "hello");
  });
  scheduler_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].sent_time, sim::Time{} + sim::Duration::Millis(3));
  EXPECT_GT(got[0].id, 0u);
  EXPECT_EQ(got[0].src, (Endpoint{a.ip(), 5060}));
}

TEST_F(NetFixture, HostSendWithoutUplinkThrows) {
  auto& host = network_.AddNode<Host>(network_, "h", IpAddress(10, 0, 0, 1));
  EXPECT_THROW(
      host.SendUdp(1, Endpoint{IpAddress(1, 1, 1, 1), 1}, "x"),
      std::logic_error);
}

// --------------------------------------------------------------------- tap

class TapFixture : public NetFixture {
 protected:
  TapFixture()
      : tap_(network_.AddNode<InlineTap>("tap", scheduler_)),
        inside_(network_.AddNode<SinkNode>("inside")),
        outside_(network_.AddNode<SinkNode>("outside")) {
    Link& to_inside = network_.MakeLink("tap->inside", inside_, FastEthernet());
    Link& to_outside =
        network_.MakeLink("tap->outside", outside_, FastEthernet());
    tap_.SetLinks(to_inside, to_outside);
  }

  InlineTap& tap_;
  SinkNode& inside_;
  SinkNode& outside_;
};

TEST_F(TapFixture, ForwardsToOppositeSide) {
  Datagram d;
  d.payload = "x";
  tap_.port_from_outside().Receive(d);
  tap_.port_from_inside().Receive(d);
  scheduler_.Run();
  EXPECT_EQ(inside_.received.size(), 1u);
  EXPECT_EQ(outside_.received.size(), 1u);
  EXPECT_EQ(tap_.packets_seen(), 2u);
}

TEST_F(TapFixture, NullInspectorAddsNoDelay) {
  Datagram d;
  d.payload = "x";
  tap_.port_from_outside().Receive(d);
  scheduler_.Run();
  // Only the outgoing link's delay applies (FastEthernet ~ 8.3us).
  EXPECT_LT(scheduler_.Now().ToSeconds(), 0.001);
  EXPECT_EQ(tap_.cpu_time_used(), sim::Duration{});
}

TEST_F(TapFixture, InspectorChargesSerializedCpuTime) {
  tap_.SetInspector([](const Datagram&, bool) {
    return InlineTap::Verdict{sim::Duration::Millis(10),
                              InlineTap::Lane::kSignaling};
  });
  Datagram d;
  d.payload = "x";
  tap_.port_from_outside().Receive(d);
  tap_.port_from_outside().Receive(d);  // queues behind the first
  scheduler_.Run();
  ASSERT_EQ(inside_.received.size(), 2u);
  // Second packet leaves the CPU at 20 ms.
  EXPECT_GE(scheduler_.Now(), sim::Time{} + sim::Duration::Millis(20));
  EXPECT_EQ(tap_.cpu_time_used(), sim::Duration::Millis(20));
}

TEST_F(TapFixture, LanesQueueIndependentlyByVerdict) {
  // Same bytes each time: a packet's lane is the one its verdict names.
  const InlineTap::Verdict verdicts[] = {
      {sim::Duration::Millis(100), InlineTap::Lane::kSignaling},
      {sim::Duration::Millis(1), InlineTap::Lane::kMedia},
      {sim::Duration::Millis(1), InlineTap::Lane::kSignaling}};
  size_t next = 0;
  tap_.SetInspector([&](const Datagram&, bool) { return verdicts[next++]; });
  for (const char* payload : {"a", "b", "c"}) {
    Datagram d;
    d.payload = payload;
    tap_.port_from_outside().Receive(d);
  }
  // The media packet is not held behind the 100 ms signaling charge; the
  // second signaling packet is (100 + 1 ms).
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Millis(50));
  ASSERT_EQ(inside_.received.size(), 1u);
  EXPECT_EQ(inside_.received[0].payload, "b");
  scheduler_.Run();
  ASSERT_EQ(inside_.received.size(), 3u);
  EXPECT_EQ(inside_.received[1].payload, "a");
  EXPECT_EQ(inside_.received[2].payload, "c");
  EXPECT_GE(scheduler_.Now(), sim::Time{} + sim::Duration::Millis(101));
}

TEST_F(TapFixture, InspectorSeesTrueArrivalDirection) {
  std::vector<bool> directions;
  tap_.SetInspector([&](const Datagram&, bool from_outside) {
    directions.push_back(from_outside);
    return InlineTap::Verdict{};
  });
  Datagram d;
  d.payload = "x";
  tap_.port_from_outside().Receive(d);
  tap_.port_from_inside().Receive(d);
  scheduler_.Run();
  EXPECT_EQ(directions, (std::vector<bool>{true, false}));
}

TEST_F(TapFixture, MonitorSeesPacketsWithoutCost) {
  int monitored = 0;
  tap_.SetMonitor([&](const Datagram&, bool) { ++monitored; });
  Datagram d;
  d.payload = "x";
  tap_.port_from_inside().Receive(d);
  scheduler_.Run();
  EXPECT_EQ(monitored, 1);
  EXPECT_EQ(tap_.cpu_time_used(), sim::Duration{});
}

}  // namespace
}  // namespace vids::net
