// Tests of the behavioral anomaly layer (src/vids/behavior, DESIGN.md §16):
// engine-level scoring/classification/cooldown semantics, the cooldown and
// horizon derived from the dedup window, the
// sweep-independence contract, false-positive resistance on a benign
// call-center workload, the three protocol-legal attack scenarios riding
// through the soak harness, and byte-identical alert streams across shard
// and producer counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load/soak.h"
#include "vids/behavior/behavior.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace vids::ids::behavior {
namespace {

sim::Time At(double seconds) {
  return sim::Time::FromNanos(static_cast<int64_t>(seconds * 1e9));
}

struct Harness {
  explicit Harness(
      sim::Duration dedup_window = DetectionConfig{}.alert_dedup_window)
      : engine(dedup_window) {
    engine.set_alert_sink(
        [this](Alert&& alert) { alerts.push_back(std::move(alert)); });
  }
  BehaviorEngine engine;
  std::vector<Alert> alerts;
};

TEST(BehaviorEngineTest, SpitBurstScoresRateDominantThenCoolsDown) {
  Harness h;
  // One caller blasting 30 initial INVITEs at distinct victims, 150 ms
  // apart — all inside one 10 s rate window and one cooldown.
  for (int k = 0; k < 30; ++k) {
    h.engine.OnCallStart(At(0.15 * k), "spitter@a.example.com",
                         "victim-" + std::to_string(k) + "@b.example.com",
                         "spitware/1.0", static_cast<uint64_t>(k));
  }
  ASSERT_EQ(h.alerts.size(), 1u);
  const Alert& alert = h.alerts.front();
  EXPECT_EQ(alert.kind, AlertKind::kBehavior);
  EXPECT_EQ(alert.classification, kBehaviorSpit);
  EXPECT_EQ(alert.machine, kBehaviorMachine);
  EXPECT_EQ(alert.group, "caller|spitter@a.example.com");
  EXPECT_EQ(alert.state, "elevated");
  // Score provenance: the per-feature breakdown rides in the detail.
  EXPECT_NE(alert.detail.find("score="), std::string::npos);
  EXPECT_NE(alert.detail.find("calls="), std::string::npos);
  EXPECT_NE(alert.detail.find("fanout="), std::string::npos);
  // The 18th call is the first to clear kAlertScore (400 * (18 - 15));
  // every over-threshold call after it lands inside the cooldown.
  EXPECT_EQ(h.engine.alerts_emitted(), 1u);
  EXPECT_GT(h.engine.cooldown_suppressed(), 0u);
}

TEST(BehaviorEngineTest, ReemissionAfterCooldownEscalatesToCritical) {
  Harness h;
  for (int k = 0; k < 60; ++k) {
    h.engine.OnCallStart(At(0.3 * k), "burster@a.example.com",
                         "victim-" + std::to_string(k) + "@b.example.com",
                         "spitware/1.0", static_cast<uint64_t>(k));
  }
  // First alert at call 18 (t=5.1 s, rate 18 and fan-out 18, score 1500:
  // elevated, rate-led). The next emission waits out the 10 s cooldown, to
  // call 52 at 15.3 s: the rate window restarted at 10.2 s and holds 18
  // calls again, but the 60 s fan-out window holds 52 destinations, so the
  // score clears kCriticalScore and fan-out leads it.
  ASSERT_EQ(h.alerts.size(), 2u);
  EXPECT_EQ(h.alerts[0].state, "elevated");
  EXPECT_EQ(h.alerts[0].classification, kBehaviorSpit);
  EXPECT_EQ(h.alerts[1].state, "critical");
  EXPECT_EQ(h.alerts[1].classification, kBehaviorTollFraud);
  EXPECT_EQ(h.alerts[0].when, At(0.3 * 17));
  EXPECT_EQ(h.alerts[1].when, At(0.3 * 51));
}

TEST(BehaviorEngineTest, CooldownAndHorizonDeriveFromTheDedupWindow) {
  // A dedup window under the floors leaves both at their constants.
  const BehaviorEngine second(sim::Duration::Seconds(1));
  EXPECT_EQ(second.cooldown(), kMinAlertCooldown);
  EXPECT_EQ(second.IdleHorizon(), kMinIdleHorizon);
  // A longer window lifts the cooldown to itself; the horizon follows it
  // once the cooldown outgrows the floor.
  const BehaviorEngine minute(sim::Duration::Seconds(60));
  EXPECT_EQ(minute.cooldown(), sim::Duration::Seconds(60));
  EXPECT_EQ(minute.IdleHorizon(), kMinIdleHorizon);
  const BehaviorEngine ten_minutes(sim::Duration::Seconds(600));
  EXPECT_EQ(ten_minutes.cooldown(), sim::Duration::Seconds(600));
  EXPECT_EQ(ten_minutes.IdleHorizon(), sim::Duration::Seconds(600));
}

TEST(BehaviorEngineTest, LowAndSlowFanoutClassifiesAsTollFraud) {
  Harness h;
  // 2 s pacing keeps the 10 s call-rate window far under threshold; only
  // the 60 s distinct-destination window accumulates.
  for (int k = 0; k < 25; ++k) {
    h.engine.OnCallStart(At(2.0 * k), "fraudster@a.example.com",
                         "premium-" + std::to_string(k) + "@b.example.com",
                         "fraudster-phone/2.1", static_cast<uint64_t>(k));
  }
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts.front().classification, kBehaviorTollFraud);
  // Fan-out is the dominant (here: only) contributing feature: the 23rd
  // distinct destination is 7 over threshold at weight 150.
  EXPECT_NE(h.alerts.front().detail.find("fanout=23:+1050"),
            std::string::npos);
}

TEST(BehaviorEngineTest, RegCrackingAlertsAndSuccessBreaksTheStreak) {
  Harness h;
  // Distributed cracking: 10 failed REGISTERs against one AOR from 10
  // distinct sources, 300 ms apart.
  for (int k = 0; k < 10; ++k) {
    h.engine.OnRegFailure(At(0.3 * k), "victim@b.example.com",
                          0x0a09'0000 + static_cast<uint64_t>(k));
  }
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts.front().classification, kBehaviorRegCracking);
  EXPECT_EQ(h.alerts.front().group, "reg|victim@b.example.com");
  EXPECT_NE(h.alerts.front().detail.find("reg_failures="), std::string::npos);

  // A successful registration (past the cooldown, so suppression is not
  // what hides the next alert) resets both the failure window and the
  // source spread: a fresh sub-threshold streak stays silent.
  h.engine.OnRegSuccess(At(15.0), "victim@b.example.com");
  for (int k = 0; k < 7; ++k) {
    h.engine.OnRegFailure(At(20.0 + 0.3 * k), "victim@b.example.com",
                          0x0b0b'0000 + static_cast<uint64_t>(k));
  }
  EXPECT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.engine.alerts_emitted(), 1u);
}

TEST(BehaviorEngineTest, ScoreDecaysAcrossWindows) {
  Harness h;
  // Two sub-threshold bursts separated by more than the rate window: the
  // armed-window counter restarts, so the bursts never sum. Single
  // destination keeps the fan-out feature out of the picture.
  for (int k = 0; k < 14; ++k) {
    h.engine.OnCallStart(At(0.1 * k), "bursty@a.example.com",
                         "callee@b.example.com", "softphone/3.2",
                         static_cast<uint64_t>(k));
  }
  for (int k = 0; k < 14; ++k) {
    h.engine.OnCallStart(At(20.0 + 0.1 * k), "bursty@a.example.com",
                         "callee@b.example.com", "softphone/3.2",
                         static_cast<uint64_t>(100 + k));
  }
  EXPECT_TRUE(h.alerts.empty());
  EXPECT_EQ(h.engine.cooldown_suppressed(), 0u);
}

TEST(BehaviorEngineTest, SweepIsInvisibleToEmissionsAndRecyclesProfiles) {
  // Two engines fed the identical event stream; one is aggressively swept
  // in the idle gap. The determinism contract says their alert streams
  // must be byte-identical.
  Harness swept;
  Harness retained;
  const auto feed = [&](BehaviorEngine& engine) {
    for (int k = 0; k < 10; ++k) {  // sub-threshold warmup burst
      engine.OnCallStart(At(0.1 * k), "bob@a.example.com",
                         "dest-" + std::to_string(k) + "@b.example.com",
                         "softphone/3.2", static_cast<uint64_t>(k));
    }
    // An unrelated caller still live at the first sweep: a sweep that
    // leaves no profile frees the pool, so carol keeps bob's recycling
    // observable.
    engine.OnCallStart(At(100.0), "carol@a.example.com",
                       "dest-x@b.example.com", "softphone/3.2", 99u);
  };
  feed(swept.engine);
  feed(retained.engine);
  EXPECT_EQ(swept.engine.profile_count(), 2u);

  // t=150 s: bob has been idle 149 s > IdleHorizon() (120 s) — reclaimable;
  // carol (idle 50 s) is not.
  swept.engine.Sweep(At(150.0));
  EXPECT_EQ(swept.engine.profile_count(), 1u);
  EXPECT_EQ(swept.engine.pool_size(), 1u);
  retained.engine.Sweep(At(100.5));  // nothing idle: a no-op
  EXPECT_EQ(retained.engine.profile_count(), 2u);

  const auto burst = [&](BehaviorEngine& engine) {
    for (int k = 0; k < 20; ++k) {
      engine.OnCallStart(At(200.0 + 0.1 * k), "bob@a.example.com",
                         "dest-" + std::to_string(100 + k) + "@b.example.com",
                         "softphone/3.2", static_cast<uint64_t>(100 + k));
    }
  };
  burst(swept.engine);   // profile recreated from the recycle pool
  burst(retained.engine);
  EXPECT_EQ(swept.engine.pool_size(), 0u);  // pooled profile was reused

  ASSERT_EQ(swept.alerts.size(), retained.alerts.size());
  ASSERT_FALSE(swept.alerts.empty());
  for (size_t i = 0; i < swept.alerts.size(); ++i) {
    EXPECT_EQ(swept.alerts[i].ToString(), retained.alerts[i].ToString());
  }

  // Lifecycle closes clean: after the alert both profiles go idle, and the
  // sweep that reclaims them drains the engine and frees the pool.
  swept.engine.Sweep(At(400.0));
  EXPECT_EQ(swept.engine.profile_count(), 0u);
  EXPECT_EQ(swept.engine.pool_size(), 0u);
}

TEST(BehaviorEngineTest, SweepExaminesOnlyDueProfiles) {
  // 50k profiles, callers and registration targets, last touched over the
  // first 50 s: each is reclaimable only once idle past IdleHorizon()
  // (120 s).
  Harness h;
  constexpr int kProfiles = 50000;
  for (int i = 0; i < kProfiles; ++i) {
    const std::string entity = "user-" + std::to_string(i) + "@a.example.com";
    if (i % 2 == 0) {
      h.engine.OnCallStart(At(0.001 * i), entity, "dest@b.example.com", "",
                           static_cast<uint64_t>(i));
    } else {
      h.engine.OnRegFailure(At(0.001 * i), entity, static_cast<uint64_t>(i));
    }
  }
  ASSERT_EQ(h.engine.profile_count(), static_cast<size_t>(kProfiles));

  // 120 sweeps, none of them with a profile due: nothing examined.
  for (int second = 1; second <= 120; ++second) h.engine.Sweep(At(second));
  EXPECT_EQ(h.engine.sweep_examined(), 0u);
  EXPECT_EQ(h.engine.profile_count(), static_cast<size_t>(kProfiles));

  // Every profile is due at 171 s: examined exactly once, and reclaimed.
  h.engine.Sweep(At(171.0));
  EXPECT_EQ(h.engine.sweep_examined(), static_cast<uint64_t>(kProfiles));
  EXPECT_EQ(h.engine.profile_count(), 0u);
  EXPECT_TRUE(h.alerts.empty());
}

}  // namespace
}  // namespace vids::ids::behavior

namespace vids::load {
namespace {

// Scenario-only soak: no benign calls, no spec-machine attack bursts —
// whatever alerts come out were raised by the behavior layer alone.
SoakConfig ScenarioOnly() {
  SoakConfig config;
  config.total_calls = 0;
  config.attack_every = 0;
  config.sample_every = sim::Duration::Seconds(5);
  return config;
}

void ExpectSingleBehaviorAlert(ids::Vids& vids,
                               std::string_view classification) {
  ASSERT_EQ(vids.alerts().size(), 1u);
  const ids::Alert& alert = vids.alerts().front();
  EXPECT_EQ(alert.kind, ids::AlertKind::kBehavior);
  EXPECT_EQ(alert.classification, classification);
  EXPECT_EQ(alert.machine, ids::behavior::kBehaviorMachine);
  EXPECT_NE(alert.detail.find("score="), std::string::npos);
  // The spec-machine layer ran the same packets to clean terminal states.
  EXPECT_EQ(vids.CountAlerts(ids::AlertKind::kSpecDeviation), 0u);
  EXPECT_EQ(vids.CountAlerts(ids::AlertKind::kAttackPattern), 0u);
  EXPECT_EQ(vids.CountAlerts(ids::AlertKind::kMalformed), 0u);
}

TEST(BehaviorScenarioTest, SpitBurstIsBehaviorOnlyDetection) {
  SoakConfig config = ScenarioOnly();
  config.spit_bursts = 1;
  SoakDriver driver(config);
  driver.Run();
  ExpectSingleBehaviorAlert(driver.vids(), ids::behavior::kBehaviorSpit);
}

TEST(BehaviorScenarioTest, RegistrationCrackingIsBehaviorOnlyDetection) {
  SoakConfig config = ScenarioOnly();
  config.reg_crack_bursts = 1;
  SoakDriver driver(config);
  driver.Run();
  ExpectSingleBehaviorAlert(driver.vids(),
                            ids::behavior::kBehaviorRegCracking);
}

TEST(BehaviorScenarioTest, TollFraudFanoutIsBehaviorOnlyDetection) {
  SoakConfig config = ScenarioOnly();
  config.toll_fraud_bursts = 1;
  SoakDriver driver(config);
  driver.Run();
  ExpectSingleBehaviorAlert(driver.vids(), ids::behavior::kBehaviorTollFraud);
}

TEST(BehaviorScenarioTest, BenignCallCenterRaisesNoBehaviorAlerts) {
  // The false-positive-resistance configuration: the benign aggregate rate
  // (100 cps) is spread over 500 caller identities, so every per-caller
  // rate and fan-out stays far under its behavioral threshold.
  SoakConfig config;
  config.seed = 7;
  config.total_calls = 3000;
  config.calls_per_second = 100.0;
  config.mean_hold = sim::Duration::Seconds(3);
  config.rtp_packets_per_call = 4;
  config.caller_aors = 500;
  config.callee_aors = 100;
  config.attack_every = 0;
  // No injected retransmissions of closed calls: those are deliberate
  // worst-case inputs that raise spec deviations by design; this test
  // isolates the behavior layer's zero-FP claim on a clean stream.
  config.late_retransmit_prob = 0.0;
  config.post_ttl_retransmit_prob = 0.0;
  config.pause = sim::Duration::Seconds(12);
  config.sample_every = sim::Duration::Seconds(2);
  config.detection.tombstone_ttl = sim::Duration::Seconds(4);
  config.detection.rtp_close_linger = sim::Duration::Seconds(2);
  // Above the 10x-mean hold clamp (30 s): a benign call must never be
  // idle-reclaimed mid-hold, or its own BYE raises a dialog-less-BYE
  // deviation and pollutes the zero-alert assertion.
  config.detection.call_idle_timeout = sim::Duration::Seconds(35);
  config.detection.keyed_idle_timeout = sim::Duration::Seconds(5);
  SoakDriver driver(config);
  const SoakReport report = driver.Run();

  EXPECT_EQ(driver.vids().CountAlerts(ids::AlertKind::kBehavior), 0u);
  EXPECT_EQ(report.alerts_total, 0u);
  ASSERT_GE(report.samples.size(), 8u);
  EXPECT_TRUE(report.bounded);
}

TEST(BehaviorScenarioTest, AlertsByteIdenticalAcrossShards) {
  // The full behavioral workload (all three scenarios plus a benign
  // stream with spec-machine attack bursts) must produce the exact same
  // alert byte stream no matter how the pipeline is parallelized —
  // behavior events ride the up rings and are replayed in frontier order
  // into the coordinator's Vids.
  const auto run = [](int shards) {
    SoakConfig config;
    config.seed = 13;
    config.total_calls = 300;
    config.calls_per_second = 50.0;
    config.mean_hold = sim::Duration::Seconds(3);
    config.rtp_packets_per_call = 4;
    config.callee_aors = 100;
    config.attack_every = 100;
    config.spit_bursts = 1;
    config.reg_crack_bursts = 1;
    config.toll_fraud_bursts = 1;
    config.sample_every = sim::Duration::Seconds(10);
    config.shards = shards;
    SoakDriver driver(config);
    driver.Run();
    std::vector<std::string> lines;
    size_t behavior_alerts = 0;
    for (const ids::Alert& alert : driver.sharded()->alerts()) {
      if (alert.kind == ids::AlertKind::kEngineHealth) continue;
      if (alert.kind == ids::AlertKind::kBehavior) ++behavior_alerts;
      lines.push_back(alert.ToString());
    }
    EXPECT_GE(behavior_alerts, 3u) << shards << " shards";
    return lines;
  };

  const std::vector<std::string> baseline = run(1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(2), baseline) << "2 shards diverged";
  EXPECT_EQ(run(4), baseline) << "4 shards diverged";
}

}  // namespace
}  // namespace vids::load
