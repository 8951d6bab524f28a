// Live metrics dashboard: the enterprise testbed under call workload and
// attack load, summarized as periodic top-style frames from the metrics
// registries, then a flight-recorder provenance dump for the last alert,
// and finally the sharded pipeline under load with per-shard columns.
//
//   $ ./build/examples/metrics_dashboard
//
// The first act shows the two single-engine observability planes side by
// side: the environment registry (what the network is doing — scheduler,
// SIP transactions, RTP senders) and the IDS registry (what the vIDS sees
// — packets, EFSM transitions and their sampled latency, alerts by
// classification). The second act switches to the multi-worker pipeline
// view: a ShardedIds under synthetic call + media load, every packet
// spanned, rendered as one row per shard — ring-depth high-water mark,
// end-to-end ingest->inspect latency quantiles, span count — from the
// merged cross-shard snapshot that the Prometheus exporter also serves.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "testbed/testbed.h"
#include "vids/sharded_ids.h"

using namespace vids;

namespace {

void PrintFrame(testbed::Testbed& bed, uint64_t last_transitions,
                double interval_s) {
  obs::MetricsRegistry& ids_metrics = bed.vids()->metrics();
  obs::MetricsRegistry& env = bed.metrics();

  const auto counter = [](const obs::MetricsRegistry& reg,
                          std::string_view name) -> uint64_t {
    const obs::Counter* c = reg.FindCounter(name);
    return c == nullptr ? 0 : c->value();
  };
  const auto gauge = [](const obs::MetricsRegistry& reg,
                        std::string_view name) -> int64_t {
    const obs::Gauge* g = reg.FindGauge(name);
    return g == nullptr ? 0 : g->value();
  };

  const uint64_t transitions = counter(ids_metrics, "efsm.transitions");
  const double rate =
      static_cast<double>(transitions - last_transitions) / interval_s;

  std::printf("---- t=%7.1fs ----------------------------------------\n",
              bed.scheduler().Now().ToSeconds());
  std::printf("  env: sim events %10llu   sip tx %llu   rtp pkts sent %llu\n",
              static_cast<unsigned long long>(
                  counter(env, "sim.events_executed")),
              static_cast<unsigned long long>(
                  counter(env, "sip.tx.clients_created") +
                  counter(env, "sip.tx.servers_created")),
              static_cast<unsigned long long>(
                  counter(env, "rtp.packets_sent")));
  std::printf("  ids: packets %llu   active calls %lld   keyed groups %lld\n",
              static_cast<unsigned long long>(
                  counter(ids_metrics, "vids.packets")),
              static_cast<long long>(gauge(ids_metrics, "vids.active_calls")),
              static_cast<long long>(gauge(ids_metrics, "vids.keyed_groups")));
  std::printf("  efsm: transitions %llu (%.0f/s)",
              static_cast<unsigned long long>(transitions), rate);
  if (const obs::Histogram* lat =
          ids_metrics.FindHistogram("efsm.transition_ns");
      lat != nullptr && lat->count() > 0) {
    std::printf("   latency p50 ~%lldns p99 ~%lldns (n=%llu sampled)",
                static_cast<long long>(lat->Quantile(0.5)),
                static_cast<long long>(lat->Quantile(0.99)),
                static_cast<unsigned long long>(lat->count()));
  }
  std::printf("\n  alerts: %llu total",
              static_cast<unsigned long long>(
                  counter(ids_metrics, "vids.alerts")));
  ids_metrics.VisitCounters(
      [](std::string_view name, const obs::Counter& c) {
        constexpr std::string_view kPrefix = "alerts.";
        if (name.substr(0, kPrefix.size()) != kPrefix) return;
        std::printf("   %.*s=%llu",
                    static_cast<int>(name.size() - kPrefix.size()),
                    name.data() + kPrefix.size(),
                    static_cast<unsigned long long>(c.value()));
      });
  std::printf("\n");
}

/// One frame of the pipeline view: per-shard ring depth / latency / span
/// columns out of the merged snapshot. The snapshot is taken after a
/// Flush() barrier, so every worker-written series in it is quiescent.
void PrintPipelineFrame(const ids::ShardedIds& engine,
                        const obs::MetricsRegistry& merged) {
  std::printf("  shard |  ring depth hwm | e2e p50      p99        | spans\n");
  char name[64];
  for (int i = 0; i < engine.shards(); ++i) {
    std::snprintf(name, sizeof(name), "shard.%d.ring.down_depth_hwm", i);
    const obs::Gauge* depth = merged.FindGauge(name);
    std::snprintf(name, sizeof(name), "shard.%d.lat.e2e", i);
    const obs::Histogram* e2e = merged.FindHistogram(name);
    std::printf("  %5d | %15lld |", i,
                depth == nullptr ? 0LL
                                 : static_cast<long long>(depth->value()));
    if (e2e != nullptr && e2e->count() > 0) {
      std::printf(" %9.3fms %9.3fms |",
                  static_cast<double>(e2e->Quantile(0.5)) / 1e6,
                  static_cast<double>(e2e->Quantile(0.99)) / 1e6);
    } else {
      std::printf(" %9s   %9s   |", "-", "-");
    }
    std::printf(" %llu\n",
                e2e == nullptr
                    ? 0ULL
                    : static_cast<unsigned long long>(e2e->count()));
  }
  const auto counter = [&merged](std::string_view n) -> uint64_t {
    const obs::Counter* c = merged.FindCounter(n);
    return c == nullptr ? 0 : c->value();
  };
  std::printf("  flushes: full=%llu deadline=%llu barrier=%llu   "
              "alerts=%llu\n",
              static_cast<unsigned long long>(
                  counter("pipeline.flush.full")),
              static_cast<unsigned long long>(
                  counter("pipeline.flush.deadline")),
              static_cast<unsigned long long>(
                  counter("pipeline.flush.barrier")),
              static_cast<unsigned long long>(counter("vids.alerts")));
}

/// Drives a ShardedIds with synthetic calls + in-session media (every
/// packet spanned) and renders the per-shard pipeline frames.
void RunPipelineView() {
  ids::ShardedConfig config;
  config.shards = 4;
  config.trace_sample_period = 1;
  ids::ShardedIds engine(config);

  const net::Endpoint proxy_a{net::IpAddress(10, 1, 0, 1), 5060};
  const net::Endpoint proxy_b{net::IpAddress(10, 2, 0, 1), 5060};
  constexpr int kCalls = 8;
  const sim::Time t0 = sim::Time::FromNanos(1);
  std::vector<net::Datagram> media;
  for (int i = 0; i < kCalls; ++i) {
    const net::Endpoint offer{net::IpAddress(10, 1, 0, 10),
                              static_cast<uint16_t>(40000 + 2 * i)};
    auto invite = sip::Message::MakeRequest(
        sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
    sip::Via via;
    via.sent_by = proxy_a;
    via.branch = "z9hG4bKdash" + std::to_string(i);
    invite.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    invite.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    invite.SetTo(to);
    invite.SetCallId("dashboard-" + std::to_string(i));
    invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
    invite.SetBody(sdp::MakeAudioOffer(offer).Serialize(), "application/sdp");

    net::Datagram d_invite;
    d_invite.src = proxy_a;
    d_invite.dst = proxy_b;
    d_invite.payload = invite.Serialize();
    engine.Ingest(d_invite, true, t0);

    rtp::RtpHeader header;
    header.ssrc = 0xDA000000u + static_cast<uint32_t>(i);
    net::Datagram dgram;
    dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(42000 + 2 * i)};
    dgram.dst = offer;
    dgram.payload = header.Serialize();
    media.push_back(std::move(dgram));
  }

  std::printf("\nsharded pipeline view: %d workers, every packet spanned\n",
              engine.shards());
  std::vector<uint16_t> seq(kCalls, 0);
  std::vector<uint32_t> ts(kCalls, 0);
  for (int frame = 0; frame < 3; ++frame) {
    for (int k = 0; k < 150; ++k) {
      for (int i = 0; i < kCalls; ++i) {
        auto& dgram = media[static_cast<size_t>(i)];
        const uint16_t s = ++seq[static_cast<size_t>(i)];
        const uint32_t t = ts[static_cast<size_t>(i)] += 160;
        dgram.payload[2] = static_cast<char>(s >> 8);
        dgram.payload[3] = static_cast<char>(s & 0xFF);
        dgram.payload[4] = static_cast<char>(t >> 24);
        dgram.payload[5] = static_cast<char>((t >> 16) & 0xFF);
        dgram.payload[6] = static_cast<char>((t >> 8) & 0xFF);
        dgram.payload[7] = static_cast<char>(t & 0xFF);
        engine.Ingest(dgram, true, t0);
      }
    }
    engine.Flush(t0);  // barrier: quiesce every shard before the snapshot
    std::printf("---- pipeline frame %d (+%d media packets) ----\n",
                frame + 1, 150 * kCalls);
    PrintPipelineFrame(engine, engine.MergedMetrics());
  }
  engine.Stop();
}

}  // namespace

int main() {
  testbed::TestbedConfig config;
  config.seed = 11;
  config.uas_per_network = 6;
  testbed::Testbed bed(config);

  // Busy workload: every network-A phone calls network-B phones often.
  testbed::WorkloadConfig workload;
  workload.mean_intercall = sim::Duration::Seconds(25);
  workload.mean_duration = sim::Duration::Seconds(40);
  bed.StartWorkload(workload);

  // Attack load on top: a spoofed BYE against a live call mid-run, and an
  // INVITE flood later.
  std::string victim_call_id;
  bed.scheduler().ScheduleAt(sim::Time::FromNanos(20'000'000'000), [&] {
    victim_call_id = bed.uas_a()[0]->ua().PlaceCall(
        bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(90));
  });
  bed.scheduler().ScheduleAt(sim::Time::FromNanos(26'000'000'000), [&] {
    if (const auto snap = bed.eavesdropper().Get(victim_call_id)) {
      bed.attacker().SendSpoofedBye(*snap);
    }
  });
  bed.scheduler().ScheduleAt(sim::Time::FromNanos(45'000'000'000), [&] {
    bed.attacker().LaunchInviteFlood(
        bed.uas_b()[1]->ua().address_of_record(), bed.proxy_b_endpoint(), 25,
        sim::Duration::Millis(20));
  });

  std::printf("enterprise testbed: %d+%d phones, workload + attacks\n",
              config.uas_per_network, config.uas_per_network);
  const sim::Duration frame = sim::Duration::Seconds(10);
  uint64_t last_transitions = 0;
  for (int i = 0; i < 8; ++i) {
    bed.RunFor(frame);
    PrintFrame(bed, last_transitions, frame.ToSeconds());
    last_transitions =
        bed.vids()->metrics().FindCounter("efsm.transitions")->value();
  }

  // Provenance: explain the BYE-DoS alert from its call's flight recorder.
  for (const auto& alert : bed.vids()->alerts()) {
    if (alert.classification == ids::kAttackByeDos) {
      std::printf("\n%s\n", alert.ProvenanceToString().c_str());
      break;
    }
  }

  std::printf("\nfinal IDS registry snapshot:\n%s",
              bed.vids()->metrics().ToJson().c_str());

  // Act two: the same observability stack on the multi-worker pipeline.
  RunPipelineView();
  return 0;
}
