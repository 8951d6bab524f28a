// Observability subsystem: metrics registry primitives, exporters, the
// per-call flight recorder, and alert provenance end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "testbed/testbed.h"
#include "vids/spec_machines.h"

namespace vids::obs {
namespace {

// ------------------------------------------------------------- primitives

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBucketsAreLog2) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(-5), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);

  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 300);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(Metrics, HistogramQuantilesAreFactorOfTwoEstimates) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty
  for (int i = 0; i < 99; ++i) h.Record(100);
  h.Record(100000);
  // p50 lands in 100's bucket: the estimate is within its 2x bound and
  // clamped to the observed range.
  const int64_t p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 100);
  EXPECT_LT(p50, 256);
  // p100 clamps to the observed max.
  EXPECT_EQ(h.Quantile(1.0), 100000);
  EXPECT_GE(h.Quantile(0.0), h.min());
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  // Empty: every quantile is 0.
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.0), 0);
  EXPECT_EQ(empty.Quantile(0.5), 0);
  EXPECT_EQ(empty.Quantile(1.0), 0);

  // Single value: every quantile collapses onto it (the bucket bound is
  // clamped to the observed [min, max]).
  Histogram one;
  one.Record(300);
  EXPECT_EQ(one.Quantile(0.0), 300);
  EXPECT_EQ(one.Quantile(0.5), 300);
  EXPECT_EQ(one.Quantile(1.0), 300);

  // Several values in one bucket: still clamped into [min, max].
  Histogram bucket;
  bucket.Record(130);
  bucket.Record(150);
  bucket.Record(170);
  const int64_t p50 = bucket.Quantile(0.5);
  EXPECT_GE(p50, 130);
  EXPECT_LE(p50, 170);
  // q below 0 / above 1 clamp to the extremes rather than misindexing.
  EXPECT_EQ(bucket.Quantile(-0.5), 130);
  EXPECT_EQ(bucket.Quantile(1.5), 170);

  // Non-positive samples land in bucket 0 and stay representable.
  Histogram zeros;
  zeros.Record(0);
  zeros.Record(-7);
  EXPECT_EQ(zeros.Quantile(0.0), -7);
  EXPECT_EQ(zeros.Quantile(1.0), 0);
}

TEST(Metrics, HistogramMergeFromIsAssociative) {
  const auto fill = [](Histogram& h, int seed, int n) {
    for (int i = 0; i < n; ++i) h.Record(seed * 37 + i * i - 5);
  };
  Histogram a, b, c;
  fill(a, 1, 40);
  fill(b, 90, 25);
  fill(c, 3000, 7);

  Histogram left;  // (a ⊕ b) ⊕ c
  left.MergeFrom(a);
  left.MergeFrom(b);
  left.MergeFrom(c);
  Histogram bc;  // a ⊕ (b ⊕ c)
  bc.MergeFrom(b);
  bc.MergeFrom(c);
  Histogram right;
  right.MergeFrom(a);
  right.MergeFrom(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  EXPECT_EQ(left.buckets(), right.buckets());

  // Merging an empty histogram is the identity (min/max must not widen
  // toward the empty histogram's zero-initialized fields).
  Histogram id;
  id.MergeFrom(a);
  id.MergeFrom(Histogram{});
  EXPECT_EQ(id.count(), a.count());
  EXPECT_EQ(id.min(), a.min());
  EXPECT_EQ(id.max(), a.max());
}

TEST(Metrics, NullSinksAreSharedSingletons) {
  Counter& c1 = NullCounter();
  Counter& c2 = NullCounter();
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(&NullGauge(), &NullGauge());
  EXPECT_EQ(&NullHistogram(), &NullHistogram());
  // Writes are harmless.
  c1.Inc();
  NullGauge().Set(5);
  NullHistogram().Record(9);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, GetIsIdempotentByName) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.count");
  Counter& b = reg.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  a.Inc(3);
  const Counter* found = reg.FindCounter("x.count");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 3u);
  EXPECT_EQ(reg.FindCounter("nope"), nullptr);
  EXPECT_EQ(reg.FindGauge("x.count"), nullptr);
}

TEST(MetricsRegistry, ToJsonIsDeterministicAndFiltersHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("b.two").Inc(2);
  reg.GetCounter("a.one").Inc(1);
  reg.GetGauge("depth").Set(-4);
  reg.GetHistogram("lat_ns").Record(5);

  const std::string json = reg.ToJson();
  // Lexicographic key order regardless of registration order.
  EXPECT_LT(json.find("a.one"), json.find("b.two"));
  EXPECT_NE(json.find("\"a.one\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.two\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": -4"), std::string::npos);
  EXPECT_NE(json.find("lat_ns"), std::string::npos);

  const std::string no_hist = reg.ToJson(/*include_histograms=*/false);
  EXPECT_EQ(no_hist.find("lat_ns"), std::string::npos);
  EXPECT_NE(no_hist.find("a.one"), std::string::npos);

  // Two registries fed identically snapshot identically.
  MetricsRegistry reg2;
  reg2.GetGauge("depth").Set(-4);
  reg2.GetCounter("a.one").Inc(1);
  reg2.GetCounter("b.two").Inc(2);
  EXPECT_EQ(reg2.ToJson(false), reg.ToJson(false));
}

TEST(MetricsRegistry, ToPrometheusSanitizesNames) {
  MetricsRegistry reg;
  reg.GetCounter("sip.tx.timer-fires").Inc(7);
  reg.GetGauge("sim.queue_depth").Set(3);
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("sip_tx_timer_fires 7"), std::string::npos);
  EXPECT_NE(text.find("sim_queue_depth 3"), std::string::npos);
  EXPECT_EQ(text.find("sip.tx"), std::string::npos);
}

TEST(MetricsRegistry, GetReferencesStayStableAcrossRegistrations) {
  // Components cache the returned reference at construction; later
  // registrations (e.g. the merged snapshot's prefixed names) must never
  // invalidate it.
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("pinned.count");
  Histogram& h = reg.GetHistogram("pinned.lat");
  for (int i = 0; i < 200; ++i) {
    reg.GetCounter("churn.c." + std::to_string(i));
    reg.GetHistogram("churn.h." + std::to_string(i));
  }
  c.Inc(5);
  h.Record(64);
  EXPECT_EQ(reg.FindCounter("pinned.count")->value(), 5u);
  EXPECT_EQ(reg.FindHistogram("pinned.lat")->count(), 1u);
  EXPECT_EQ(&c, &reg.GetCounter("pinned.count"));
  EXPECT_EQ(&h, &reg.GetHistogram("pinned.lat"));
}

TEST(MetricsRegistry, PrefixedMergeFoldsUnderShardNames) {
  MetricsRegistry shard;
  shard.GetCounter("ring.down_stalls").Inc(3);
  shard.GetGauge("ring.depth").Set(9);
  shard.GetHistogram("lat.e2e").Record(4000);
  shard.GetHistogram("lat.e2e").Record(12000);

  MetricsRegistry merged;
  merged.MergeFrom(shard, "shard.0.");
  merged.MergeFrom(shard, "shard.1.");
  merged.MergeFrom(shard);  // bare fold alongside the prefixed ones

  EXPECT_EQ(merged.FindCounter("shard.0.ring.down_stalls")->value(), 3u);
  EXPECT_EQ(merged.FindCounter("shard.1.ring.down_stalls")->value(), 3u);
  EXPECT_EQ(merged.FindCounter("ring.down_stalls")->value(), 3u);
  EXPECT_EQ(merged.FindGauge("shard.1.ring.depth")->value(), 9);
  const Histogram* h = merged.FindHistogram("shard.0.lat.e2e");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 16000);
  // Prefixed merge accumulates like the bare one.
  merged.MergeFrom(shard, "shard.0.");
  EXPECT_EQ(merged.FindCounter("shard.0.ring.down_stalls")->value(), 6u);
  EXPECT_EQ(merged.FindHistogram("shard.0.lat.e2e")->count(), 4u);
}

TEST(MetricsRegistry, ToPrometheusTurnsShardPrefixesIntoLabels) {
  MetricsRegistry reg;
  reg.GetHistogram("shard.0.lat.e2e").Record(1000);
  reg.GetHistogram("shard.1.lat.e2e").Record(3000);
  reg.GetCounter("shard.12.ring.down_stalls").Inc(4);
  reg.GetCounter("sharded.flushes").Inc(2);  // 'e' after "shard." — no label

  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("lat_e2e_count{shard=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_e2e_count{shard=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_e2e_sum{shard=\"0\"} 1000"), std::string::npos);
  EXPECT_NE(text.find("{shard=\"0\",le="), std::string::npos);
  EXPECT_NE(text.find("ring_down_stalls{shard=\"12\"} 4"), std::string::npos);
  // The family TYPE header appears once even with several shard series.
  const std::string type_line = "# TYPE lat_e2e histogram";
  const size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
  // Names that merely start with "shard" but carry no numeric segment pass
  // through unlabeled.
  EXPECT_NE(text.find("sharded_flushes 2"), std::string::npos);
  EXPECT_EQ(text.find("sharded_flushes{"), std::string::npos);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingKeepsNewestRecords) {
  FlightRecordPool pool;
  FlightRecorder ring(pool);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 0; i < 40; ++i) {
    Record r;
    r.when_ns = i;
    r.type = RecordType::kTransition;
    ring.Record(r);
  }
  EXPECT_EQ(ring.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(ring.total_recorded(), 40u);
  std::vector<int64_t> seen;
  ring.ForEach([&seen](const Record& r) { seen.push_back(r.when_ns); });
  ASSERT_EQ(seen.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(seen.front(), 40 - static_cast<int>(FlightRecorder::kCapacity));
  EXPECT_EQ(seen.back(), 39);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);

  ring.Reset();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

// Chunked rings against a plain 32-slot array: seeded interleavings of
// Record bursts and Resets over 64 rings that share one pool. After every
// step the ring touched must report the model's size, total and records in
// order, and the rings must hold exactly the chunks the pool handed out;
// every so often all rings are checked and no chunk may be held twice. Once
// every ring is reset, every chunk the pool handed out is back. Each case
// also trims the pool between rounds. FLIGHT_RING_CASES sets the number of
// cases (the nightly job runs 100x the default).
TEST(FlightRecorder, ChunkedRingsMatchAnArrayModel) {
  size_t cases = 200;
  if (const char* env = std::getenv("FLIGHT_RING_CASES")) {
    cases = std::strtoull(env, nullptr, 10);
  }
  constexpr size_t kRings = 64;
  constexpr size_t kSteps = 600;
  struct Model {
    std::array<Record, FlightRecorder::kCapacity> slots{};
    uint64_t head = 0;
  };
  const auto matches = [](const FlightRecorder& ring, const Model& model) {
    if (ring.total_recorded() != model.head) return false;
    const size_t held = std::min<uint64_t>(model.head, FlightRecorder::kCapacity);
    if (ring.size() != held) return false;
    std::vector<Record> seen;
    ring.ForEach([&seen](const Record& r) { seen.push_back(r); });
    if (seen.size() != held) return false;
    for (size_t k = 0; k < held; ++k) {
      const Record& want =
          model.slots[(model.head - held + k) % FlightRecorder::kCapacity];
      if (std::memcmp(&seen[k], &want, sizeof(Record)) != 0) return false;
    }
    return true;
  };

  for (size_t c = 0; c < cases; ++c) {
    std::mt19937_64 rng(c + 1);
    FlightRecordPool pool;
    std::vector<std::unique_ptr<FlightRecorder>> rings;
    for (size_t r = 0; r < kRings; ++r) {
      rings.push_back(std::make_unique<FlightRecorder>(pool));
    }
    std::vector<Model> models(kRings);
    // Each case favors a few hot rings and its own reset rate.
    const size_t hot = 1 + rng() % kRings;
    const uint64_t reset_odds = 4 + rng() % 60;
    for (int round = 0; round < 3; ++round) {
      for (size_t step = 0; step < kSteps; ++step) {
        const size_t r = rng() % 4 != 0 ? rng() % hot : rng() % kRings;
        if (rng() % reset_odds == 0) {
          rings[r]->Reset();
          models[r].head = 0;
        } else {
          const size_t burst = 1 + rng() % 12;
          for (size_t k = 0; k < burst; ++k) {
            Record rec;
            rec.when_ns = static_cast<int64_t>(rng());
            rec.aux = rng();
            rec.a = static_cast<uint16_t>(r);
            rec.machine = static_cast<uint8_t>(k);
            rec.type = RecordType::kTransition;
            rings[r]->Record(rec);
            Model& model = models[r];
            model.slots[model.head % FlightRecorder::kCapacity] = rec;
            ++model.head;
          }
        }
        ASSERT_TRUE(matches(*rings[r], models[r]))
            << "case " << c << " round " << round << " step " << step;
        if (step % 64 != 0) continue;
        size_t held = 0;
        std::set<uint32_t> owned;
        for (size_t q = 0; q < kRings; ++q) {
          ASSERT_TRUE(matches(*rings[q], models[q])) << "case " << c;
          held += rings[q]->chunk_count();
          rings[q]->ForEachChunk([&](uint32_t chunk) {
            EXPECT_TRUE(owned.insert(chunk).second)
                << "chunk " << chunk << " held twice, case " << c;
            EXPECT_FALSE(pool.IsFree(chunk)) << "case " << c;
          });
        }
        ASSERT_EQ(owned.size(), held) << "case " << c;
        ASSERT_EQ(pool.in_use(), held) << "case " << c;
      }
      // Between rounds some rings reset and the pool trims to what the
      // next round might take; the records of the rest survive it.
      for (size_t r = 0; r < kRings; ++r) {
        if (rng() % 2 == 0) {
          rings[r]->Reset();
          models[r].head = 0;
        }
      }
      pool.Trim(rng() % 64);
      for (size_t r = 0; r < kRings; ++r) {
        ASSERT_TRUE(matches(*rings[r], models[r])) << "case " << c;
      }
    }
    const size_t capacity = pool.capacity();
    for (auto& ring : rings) ring->Reset();
    ASSERT_EQ(pool.in_use(), 0u) << "case " << c;
    for (uint32_t chunk = 0; chunk < capacity; ++chunk) {
      ASSERT_TRUE(pool.IsFree(chunk)) << "chunk " << chunk << " lost, case " << c;
    }
    pool.Trim(0);
    EXPECT_EQ(pool.capacity(), 0u) << "case " << c;
  }
}

// --------------------------------------------------------- instrumentation

TEST(SchedulerMetrics, CountsScheduledAndExecutedEvents) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  scheduler.AttachMetrics(reg);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    scheduler.ScheduleAfter(sim::Duration::Millis(i + 1), [&fired] { ++fired; });
  }
  EXPECT_EQ(reg.FindCounter("sim.events_scheduled")->value(), 5u);
  EXPECT_EQ(reg.FindGauge("sim.queue_depth")->value(), 5);
  scheduler.RunUntil(sim::Time::FromNanos(10'000'000'000));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(reg.FindCounter("sim.events_executed")->value(), 5u);
  EXPECT_EQ(reg.FindGauge("sim.queue_depth")->value(), 0);
}

TEST(TestbedMetrics, EnvironmentRegistrySeesSipAndRtpTraffic) {
  testbed::TestbedConfig config;
  config.seed = 321;
  config.uas_per_network = 2;
  testbed::Testbed bed(config);
  bed.RunFor(sim::Duration::Seconds(2));
  auto& caller = *bed.uas_a()[0];
  caller.ua().PlaceCall(bed.uas_b()[0]->ua().address_of_record(),
                        sim::Duration::Seconds(5));
  bed.RunFor(sim::Duration::Seconds(10));

  MetricsRegistry& env = bed.metrics();
  ASSERT_NE(env.FindCounter("sip.tx.clients_created"), nullptr);
  EXPECT_GT(env.FindCounter("sip.tx.clients_created")->value(), 0u);
  ASSERT_NE(env.FindCounter("rtp.packets_sent"), nullptr);
  EXPECT_GT(env.FindCounter("rtp.packets_sent")->value(), 0u);
  EXPECT_GT(env.FindCounter("sim.events_executed")->value(), 0u);

  // IDS metrics live in their own registry, derived only from the tap.
  ASSERT_NE(bed.vids(), nullptr);
  MetricsRegistry& idsm = bed.vids()->metrics();
  EXPECT_GT(idsm.FindCounter("vids.packets")->value(), 0u);
  EXPECT_GT(idsm.FindCounter("efsm.transitions")->value(), 0u);
  EXPECT_EQ(idsm.FindCounter("sim.events_executed"), nullptr);
  // The engine's sampled transition-latency histogram is registered.
  ASSERT_NE(idsm.FindHistogram("efsm.transition_ns"), nullptr);
}

// ----------------------------------------------------------- provenance

TEST(AlertProvenance, ByeDosAlertNamesTriggerAndCallHistory) {
  testbed::TestbedConfig config;
  config.seed = 123;
  config.uas_per_network = 3;
  testbed::Testbed bed(config);
  bed.RunFor(sim::Duration::Seconds(2));
  auto& caller = *bed.uas_a()[0];
  const auto call_id = caller.ua().PlaceCall(
      bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(120));
  bed.RunFor(sim::Duration::Seconds(3));
  const auto snap = bed.eavesdropper().Get(call_id);
  ASSERT_TRUE(snap.has_value());
  bed.attacker().SendSpoofedBye(*snap);
  bed.RunFor(sim::Duration::Seconds(5));

  const ids::Alert* bye_dos = nullptr;
  for (const auto& alert : bed.vids()->alerts()) {
    if (alert.classification == ids::kAttackByeDos) {
      bye_dos = &alert;
      break;
    }
  }
  ASSERT_NE(bye_dos, nullptr);

  // The trigger names the transition that entered the attack state.
  EXPECT_FALSE(bye_dos->trigger.empty());
  EXPECT_NE(bye_dos->trigger.find("->"), std::string::npos);
  EXPECT_NE(bye_dos->trigger.find(ids::kAttackByeDos), std::string::npos);

  // Provenance: the call's preceding history, bounded by the ring.
  ASSERT_FALSE(bye_dos->provenance.empty());
  EXPECT_LE(bye_dos->provenance.size(), FlightRecorder::kCapacity);
  // The spoofed BYE's cross-machine sync (SIP -> RTP channel send) and the
  // fact-base call creation are both part of the story.
  bool saw_transition = false;
  bool saw_alert_line = false;
  for (const auto& line : bye_dos->provenance) {
    if (line.find("->") != std::string::npos) saw_transition = true;
    if (line.find("ALERT") != std::string::npos) saw_alert_line = true;
  }
  EXPECT_TRUE(saw_transition);
  // The kAlert marker is stamped *after* provenance capture, so this
  // alert's own emission is not in its own history.
  (void)saw_alert_line;

  const std::string report = bye_dos->ProvenanceToString();
  EXPECT_NE(report.find("trigger:"), std::string::npos);
  EXPECT_NE(report.find(ids::kAttackByeDos), std::string::npos);

  // Every alert (not just this one) carries a trigger and provenance.
  for (const auto& alert : bed.vids()->alerts()) {
    EXPECT_FALSE(alert.trigger.empty()) << alert.classification;
    EXPECT_LE(alert.provenance.size(), FlightRecorder::kCapacity);
  }

  // Attack-specific alert counters appeared in the IDS registry.
  const std::string counter_name =
      "alerts." + std::string(ids::kAttackByeDos);
  const Counter* by_class = bed.vids()->metrics().FindCounter(counter_name);
  ASSERT_NE(by_class, nullptr);
  EXPECT_GE(by_class->value(), 1u);
}

}  // namespace
}  // namespace vids::obs
