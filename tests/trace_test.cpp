// Trace capture and offline replay: the recorded wire traffic of an attack
// run, saved as pcap and re-analyzed by a fresh vIDS, reproduces the online
// verdicts.
#include <gtest/gtest.h>

#include <set>

#include "capture/pcap.h"
#include "capture/replay.h"
#include "load/soak.h"
#include "vids/trace.h"
#include "testbed/testbed.h"

namespace vids::ids {
namespace {

/// Saves `log` as a pcap file image and replays it into `vids` through
/// capture::RunSource, which stops at the last packet. Epoch 0 on write and
/// no rebase on read keep every pcap timestamp equal to its recorded
/// sim-clock instant.
capture::ReplayStats SaveAndReplay(const TraceLog& log, Vids& vids,
                                   sim::Scheduler& scheduler) {
  capture::PcapWriteOptions write;
  write.epoch_base_s = 0;
  capture::PcapWriter writer(write);
  for (const TraceRecord& record : log.records()) {
    writer.Add(record.when, record.dgram);
  }
  capture::PcapReadOptions read;
  // The testbed's and the soak's network B sits inside the tap.
  read.inside = net::Subnet(net::IpAddress(10, 2, 0, 0), 16);
  read.rebase_to_first = false;
  capture::PcapFileSource source(writer.bytes(), read);
  return capture::RunSource(source, vids, scheduler);
}

TEST(TraceLog, OfflineReplayReproducesOnlineAlerts) {
  // Online: record a BYE DoS run at the tap.
  testbed::TestbedConfig config;
  config.seed = 123;
  config.uas_per_network = 3;
  testbed::Testbed bed(config);
  TraceLog capture;
  bed.AddMonitor(capture.MakeRecorder(bed.scheduler()));
  bed.RunFor(sim::Duration::Seconds(2));
  auto& caller = *bed.uas_a()[0];
  const auto call_id = caller.ua().PlaceCall(
      bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(120));
  bed.RunFor(sim::Duration::Seconds(3));
  const auto snap = bed.eavesdropper().Get(call_id);
  ASSERT_TRUE(snap.has_value());
  bed.attacker().SendSpoofedBye(*snap);
  bed.RunFor(sim::Duration::Seconds(5));
  ASSERT_GE(bed.vids()->CountAlerts(kAttackByeDos), 1u);
  ASSERT_GT(capture.size(), 100u);

  const auto online_classes = [&] {
    std::set<std::string> classes;
    for (const auto& alert : bed.vids()->alerts()) {
      classes.insert(alert.classification);
    }
    return classes;
  }();

  // Offline: persist as pcap, reload, re-analyze with a fresh vIDS.
  sim::Scheduler offline_scheduler;
  Vids offline(offline_scheduler);
  const auto replay = SaveAndReplay(capture, offline, offline_scheduler);
  ASSERT_TRUE(replay.ok);
  // Stop where the online run stopped, so IDS-internal timers (teardown
  // grace, sweeps) have fired in both worlds or in neither.
  offline_scheduler.RunUntil(bed.scheduler().Now());

  std::set<std::string> offline_classes;
  for (const auto& alert : offline.alerts()) {
    offline_classes.insert(alert.classification);
  }
  EXPECT_EQ(offline_classes, online_classes);
  EXPECT_GE(offline.CountAlerts(kAttackByeDos), 1u);
  EXPECT_EQ(offline.stats().packets, capture.size());

  // Replay must reproduce the IDS metric registry bit-for-bit, not just the
  // alert verdicts (histograms excluded: they sample wall-clock latency).
  EXPECT_EQ(offline.metrics().ToJson(/*include_histograms=*/false),
            bed.vids()->metrics().ToJson(/*include_histograms=*/false));
}

TEST(TraceLog, ReplayWithDifferentThresholdsChangesVerdicts) {
  // Record a mild INVITE burst (4 calls ≤ default threshold 5).
  testbed::TestbedConfig config;
  config.seed = 124;
  config.uas_per_network = 3;
  testbed::Testbed bed(config);
  TraceLog capture;
  bed.AddMonitor(capture.MakeRecorder(bed.scheduler()));
  bed.RunFor(sim::Duration::Seconds(2));
  bed.attacker().LaunchInviteFlood(bed.uas_b()[0]->ua().address_of_record(),
                                   bed.proxy_b_endpoint(), 4,
                                   sim::Duration::Millis(50));
  bed.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(bed.vids()->CountAlerts(kAttackInviteFlood), 0u);

  // Offline with a stricter threshold, the same traffic is a flood —
  // the forensics workflow the trace facility exists for.
  DetectionConfig strict;
  strict.invite_flood_threshold = 2;
  sim::Scheduler offline_scheduler;
  Vids offline(offline_scheduler, strict);
  ASSERT_TRUE(SaveAndReplay(capture, offline, offline_scheduler).ok);
  offline_scheduler.Run();  // every IDS-internal timer fires
  EXPECT_GE(offline.CountAlerts(kAttackInviteFlood), 1u);
}

TEST(TraceLog, SoakRoundTripReproducesOnlineRun) {
  // The capture hook records every datagram a soak run feeds the online
  // engine; the recording, saved as pcap and replayed into a fresh Vids,
  // must reproduce the online alert list and metric registry bit-for-bit
  // (histograms excluded: they sample wall-clock latency).
  load::SoakConfig config;
  config.seed = 77;
  config.total_calls = 250;
  config.calls_per_second = 50;
  config.attack_every = 40;
  config.pause = sim::Duration::Seconds(20);
  config.sample_every = sim::Duration::Seconds(10);
  TraceLog capture;
  config.capture = &capture;
  load::SoakDriver driver(config);
  driver.Run();
  ASSERT_GT(capture.size(), 0u);
  ASSERT_GT(driver.vids().alerts().size(), 0u);

  sim::Scheduler offline_scheduler;
  Vids offline(offline_scheduler, config.detection);
  offline.set_max_retained_alerts(config.max_retained_alerts);
  const auto replay = SaveAndReplay(capture, offline, offline_scheduler);
  ASSERT_TRUE(replay.ok);
  ASSERT_EQ(replay.packets, capture.size());
  offline_scheduler.RunUntil(driver.scheduler().Now());

  const auto& online_alerts = driver.vids().alerts();
  const auto& offline_alerts = offline.alerts();
  ASSERT_EQ(offline_alerts.size(), online_alerts.size());
  for (size_t i = 0; i < online_alerts.size(); ++i) {
    EXPECT_EQ(offline_alerts[i].when, online_alerts[i].when) << i;
    EXPECT_EQ(offline_alerts[i].classification,
              online_alerts[i].classification)
        << i;
    EXPECT_EQ(offline_alerts[i].group, online_alerts[i].group) << i;
  }
  EXPECT_EQ(offline.metrics().ToJson(/*include_histograms=*/false),
            driver.vids().metrics().ToJson(/*include_histograms=*/false));
}

}  // namespace
}  // namespace vids::ids
