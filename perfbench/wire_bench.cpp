// wire_bench: wire-to-alert capture-replay benchmark for the vIDS engines.
//
//   wire_bench generate --workload W --seed S [--toy] --out FILE
//     Synthesizes workload W with load::SoakDriver (direct mode), writes
//     every generated datagram to FILE as a classic pcap, then replays
//     FILE once through capture::RunSource into a plain Vids for the
//     reference alert digest. Writes FILE.manifest (one JSON object):
//     the capture's fingerprint, its warm-up prefix and that digest.
//     Generation is never timed.
//
//   wire_bench replay --workload W --capture FILE --packets N --warmup N
//                     --digest HEX --seconds S --trace 0|1 [--spans FILE]
//     Replays FILE closed loop from this one thread through the
//     workload's engine, the same calls in the same order as
//     capture::RunSource:
//       direct:  PullBatch -> Scheduler::RunUntil -> Vids::Inspect
//       sharded: PullBatch -> ShardedIds::Ingest, then Flush
//     --trace 0 repeats whole passes (open, build, replay, check) until S
//     seconds have passed and reports the end-to-end metrics. --trace 1
//     runs the classify/index side pass, alternating untraced and traced
//     passes of the workload's engine and one traced pass of the other
//     engine, and reports the per-layer ledger. Each pass first times a
//     fixed host-speed probe and prints it, so a change of host speed
//     between runs shows.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}. Every pass checks that
// the source ended healthy, skipped no record, delivered every packet of
// the capture and that its retained alerts hash to the reference digest.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "capture/pcap.h"
#include "capture/replay.h"
#include "load/soak.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sip/lazy_message.h"
#include "vids/classifier.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"
#include "vids/trace.h"

namespace {

using namespace vids;

/// capture::RunSource's default batch size.
constexpr size_t kBatch = 64;

int64_t Now() { return obs::MonotonicNanos(); }

// ------------------------------------------------------------- workloads

/// One benchmark workload: the generator settings, the engine the capture
/// is replayed through, and how much of it is untimed warm-up.
struct Workload {
  std::string name;
  bool sharded = false;
  load::SoakConfig soak;
  /// Simulated time at the head of the capture that is replayed but not
  /// timed: long enough for calls, lingering RTP machines, tombstones
  /// and keyed groups to reach their plateau.
  sim::Duration warmup;
  /// Simulated time the capture keeps: warm-up plus the timed segment.
  /// Arrivals run past it, so the timed segment is steady state and never
  /// the generator's ramp-down.
  sim::Duration span;
  /// Traced runs sample tracked state at this simulated interval.
  sim::Duration sample_every = sim::Duration::Seconds(10);
};

/// The three workloads; `toy` shrinks each to a few thousand packets for
/// the smoke test while keeping its shape.
std::optional<Workload> FindWorkload(std::string_view name, bool toy) {
  Workload w;
  w.name = std::string(name);
  load::SoakConfig& s = w.soak;
  s.pause = sim::Duration::Seconds(0);  // no mid-run silence
  if (name == "media_steady") {
    // RTP-dominated: ~320 concurrent calls, 15 media packets/s each, one
    // caller identity per ~25 calls so no behavior profile nears a
    // threshold. About 4900 packets per simulated second, so the 1 Hz
    // sweep rides ~0.02% of packets: p99.99 sits mid-way through the sweep
    // population (not on its noisy upper tail) and p99 inside the SIP one
    // (~2% of packets). Sweep cost follows the tracked state, which varies
    // from seed to seed; a two-minute timed segment averages it over ~6
    // mean holds.
    s.calls_per_second = 16;
    s.mean_hold = sim::Duration::Seconds(20);
    s.rtp_packets_per_call = 150;
    s.caller_aors = 400;
    s.attack_every = 0;
    w.warmup = sim::Duration::Seconds(toy ? 2 : 90);
    w.span = sim::Duration::Seconds(toy ? 4 : 210);
  } else if (name == "signaling_churn") {
    // SIP-dominated churn: 500 calls/s with short holds and two media
    // packets each way, an attack burst every 50 calls and the three
    // behavioral scenarios over 400 caller AORs. Tens of thousands of
    // tracked entries make the 1 Hz sweep the heaviest timer.
    s.calls_per_second = toy ? 100 : 500;
    s.mean_hold = sim::Duration::Seconds(toy ? 1 : 5);
    s.rtp_packets_per_call = 2;
    s.caller_aors = 400;
    s.attack_every = 50;
    s.spit_bursts = toy ? 1 : 3;
    s.reg_crack_bursts = toy ? 1 : 2;
    s.toll_fraud_bursts = 1;
    w.warmup = sim::Duration::Seconds(toy ? 1 : 70);
    w.span = sim::Duration::Seconds(toy ? 3 : 110);
  } else if (name == "sharded_mixed") {
    // RTP majority with call churn, attack bursts and the behavioral
    // scenarios, replayed through the 2-shard engine.
    w.sharded = true;
    s.calls_per_second = toy ? 20 : 60;
    s.mean_hold = sim::Duration::Seconds(toy ? 2 : 10);
    s.rtp_packets_per_call = toy ? 10 : 40;
    s.caller_aors = 200;
    s.attack_every = toy ? 25 : 100;
    s.spit_bursts = toy ? 1 : 2;
    s.reg_crack_bursts = toy ? 1 : 2;
    s.toll_fraud_bursts = toy ? 0 : 1;
    w.warmup = sim::Duration::Seconds(toy ? 2 : 60);
    w.span = sim::Duration::Seconds(toy ? 4 : 130);
  } else {
    return std::nullopt;
  }
  // Arrivals continue a little past the span.
  s.total_calls = static_cast<uint64_t>(s.calls_per_second *
                                        (w.span.ToSeconds() + 2));
  if (toy) w.sample_every = sim::Duration::Seconds(1);
  return w;
}

capture::PcapReadOptions ReadOptions() {
  // The generator's protected side is 10.2.0.0/16 (proxy B and the
  // callees), so this reproduces its direction flags exactly.
  capture::PcapReadOptions options;
  options.inside = net::Subnet::Parse("10.2.0.0/16");
  return options;
}

ids::ShardedConfig ShardedSetup() {
  ids::ShardedConfig config;
  config.shards = 2;  // every other field stays at its default
  return config;
}

// ---------------------------------------------------------------- digests

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Hash of the retained alerts in canonical (time, rendered text) order.
/// EngineHealth alerts are wall-clock watchdog verdicts, not detections;
/// they are left out of the digest and counted in `*health`.
std::string AlertDigest(const std::vector<ids::Alert>& alerts, size_t* kept,
                        size_t* health) {
  std::vector<std::pair<int64_t, std::string>> lines;
  lines.reserve(alerts.size());
  *health = 0;
  for (const ids::Alert& alert : alerts) {
    if (alert.kind == ids::AlertKind::kEngineHealth) {
      ++*health;
      continue;
    }
    lines.emplace_back(alert.when.nanos(), alert.ToString());
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = kFnvOffset;
  for (const auto& [when, text] : lines) {
    h = Fnv1a(h, std::to_string(when));
    h = Fnv1a(h, "\t");
    h = Fnv1a(h, text);
    h = Fnv1a(h, "\n");
  }
  *kept = lines.size();
  return Hex(h);
}

// --------------------------------------------------------------- generate

int Generate(const Workload& w, uint64_t seed, bool toy,
             const std::string& out) {
  const int64_t t0 = Now();
  uint64_t warmup_packets = 0;
  size_t capture_bytes = 0;
  uint64_t capture_digest = 0;
  {
    ids::TraceLog log;
    load::SoakConfig config = w.soak;
    config.seed = seed;
    config.capture = &log;
    {
      load::SoakDriver soak(config);
      soak.Run();
    }
    if (log.size() == 0) {
      std::fprintf(stderr, "generate: workload produced no packets\n");
      return 1;
    }
    capture::PcapWriter writer;
    const sim::Time first = log.records().front().when;
    uint64_t kept = 0;
    for (const ids::TraceRecord& record : log.records()) {
      // The reader rebases timestamps to the first packet.
      if (record.when - first >= w.span) break;
      writer.Add(record.when, record.dgram);
      ++kept;
      if (record.when - first < w.warmup) ++warmup_packets;
    }
    // The timed segment starts on a batch boundary.
    warmup_packets = (warmup_packets + kBatch - 1) / kBatch * kBatch;
    if (warmup_packets >= kept) {
      std::fprintf(stderr, "generate: warm-up covers the whole capture\n");
      return 1;
    }
    if (!writer.WriteFile(out)) {
      std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
      return 1;
    }
    capture_bytes = writer.bytes().size();
    capture_digest = Fnv1a(kFnvOffset, writer.bytes());
  }

  // Reference digest: a plain direct replay of the written bytes.
  const auto source = capture::PcapFileSource::Open(out, ReadOptions());
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  const capture::ReplayStats replay =
      capture::RunSource(*source, vids, scheduler);
  const capture::PcapStats& ps = source->stats();
  const uint64_t skipped = ps.skipped_non_ip + ps.skipped_non_udp +
                           ps.skipped_fragment + ps.skipped_malformed;
  if (!replay.ok || skipped != 0 || ps.delivered != ps.records) {
    std::fprintf(stderr, "generate: capture does not read back cleanly: %s\n",
                 source->error().c_str());
    return 1;
  }
  size_t alerts = 0;
  size_t health = 0;
  const std::string digest = AlertDigest(vids.alerts(), &alerts, &health);
  const ids::Vids::Stats stats = vids.stats();

  const std::string manifest_path = out + ".manifest";
  std::FILE* f = std::fopen(manifest_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "generate: cannot write %s\n",
                 manifest_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"scale\": \"%s\", "
      "\"engine\": \"%s\", \"packets\": %" PRIu64 ", \"sip\": %" PRIu64
      ", \"rtp\": %" PRIu64 ", \"rtcp\": %" PRIu64 ", \"other\": %" PRIu64
      ", \"span_ns\": %" PRId64 ", \"bytes\": %zu, \"digest\": \"%s\", "
      "\"warmup_packets\": %" PRIu64 ", \"ref_alerts\": %zu, "
      "\"ref_digest\": \"%s\", \"generate_s\": %.3f}\n",
      w.name.c_str(), seed, toy ? "toy" : "full",
      w.sharded ? "sharded" : "direct", replay.packets, stats.sip_packets,
      stats.rtp_packets, stats.rtcp_packets, stats.unknown_packets,
      replay.end.nanos(), capture_bytes, Hex(capture_digest).c_str(),
      warmup_packets, alerts, digest.c_str(),
      static_cast<double>(Now() - t0) / 1e9);
  const bool write_ok = std::fclose(f) == 0;
  return write_ok ? 0 : 1;
}

// ------------------------------------------------------------------ replay

struct ReplayArgs {
  Workload workload;
  std::string capture;
  std::string spans;
  uint64_t packets = 0;  // packets in the capture (manifest)
  uint64_t warmup = 0;   // untimed prefix, a multiple of kBatch
  double capture_mb = 0;
  std::string digest;    // reference alert digest
  double seconds = 10;
  bool trace = false;
};

enum PacketClass : uint8_t { kSip, kRtp, kRtcp, kOther };

PacketClass ClassOf(const ids::ClassifiedPacket* packet) {
  if (packet == nullptr) return kOther;
  switch (packet->proto) {
    case ids::PacketProto::kSip: return kSip;
    case ids::PacketProto::kRtp: return kRtp;
    case ids::PacketProto::kRtcp: return kRtcp;
    case ids::PacketProto::kUnknown: break;
  }
  return kOther;
}

uint32_t Clamp32(int64_t v) {
  return static_cast<uint32_t>(std::clamp<int64_t>(v, 0, UINT32_MAX));
}

/// Tracked state at one simulated instant (traced passes only).
struct StateSample {
  size_t memory_bytes = 0;
  size_t entries = 0;
  size_t profiles = 0;
};

/// A layer call across which the vids.sweeps counter advanced.
struct SweepSpan {
  uint64_t packet = 0;   // capture index of the packet that carried it
  uint32_t ns = 0;
  uint32_t entries = 0;  // fact-base entries before the call
};

/// What a traced pass records, kept compact so that recording disturbs
/// the engine's caches as little as possible: the duration of every layer
/// call in the timed segment plus the calls that carried a sweep. Each
/// call is bracketed by its own pair of clock reads, so the harness's
/// per-packet bookkeeping between calls belongs to no layer and shows as
/// the unattributed share of the replay time.
struct Trace {
  std::vector<uint32_t> pull_ns;    // per PullBatch call
  std::vector<uint32_t> first_ns;   // per packet: RunUntil or Ingest
  std::vector<uint32_t> second_ns;  // per packet: Inspect (direct only)
  std::vector<SweepSpan> sweeps;
  double timer_ns = 0;        // RunUntil calls that ran events but no sweep
  uint64_t timer_events = 0;  // the events those calls executed
  int64_t drain_ns = 0;       // final RunUntil(source.clock()) or Flush
};

/// Host-speed probe times, taken just before a pass (see ProbeHost).
struct HostProbe {
  double core_ms = 0;
  double memory_ms = 0;
};

/// Everything one pass measured and checked.
struct Pass {
  bool sharded = false;
  bool traced = false;
  // correctness
  uint64_t offered = 0;
  uint64_t delivered = 0;
  uint64_t skipped = 0;
  bool source_ok = false;
  std::string digest;
  size_t alerts = 0;
  size_t health_alerts = 0;
  // end to end
  HostProbe probe;
  double setup_s = 0;
  double open_s = 0;
  int64_t replay_ns = 0;  // first timed packet .. engine drained
  uint64_t first_timed = 0;
  uint64_t timed = 0;
  uint64_t sweeps = 0;  // vids.sweeps advanced during the timed segment
  // traced passes
  Trace trace;
  std::vector<StateSample> samples;
  int64_t excluded_ns = 0;  // state sampling inside the timed segment
  std::vector<std::pair<std::string, double>> counters;

  bool DigestOk(const std::string& expected) const {
    return digest == expected;
  }
  bool Correct(const std::string& expected) const {
    return source_ok && skipped == 0 && delivered == offered &&
           DigestOk(expected);
  }
  /// Undelivered packets fail; a faulted source or a wrong digest fails
  /// every packet of the pass.
  uint64_t Failed(const std::string& expected) const {
    if (!source_ok || skipped != 0 || !DigestOk(expected)) return offered;
    return offered > delivered ? offered - delivered : 0;
  }
  double TimedReplayNs() const {
    return static_cast<double>(replay_ns - excluded_ns);
  }
};

uint64_t CounterValue(const obs::MetricsRegistry& registry,
                      std::string_view name) {
  const obs::Counter* counter = registry.FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

void FinishSource(const capture::PcapFileSource& source, Pass& pass) {
  const capture::PcapStats& stats = source.stats();
  pass.delivered = stats.delivered;
  pass.skipped = stats.skipped_non_ip + stats.skipped_non_udp +
                 stats.skipped_fragment + stats.skipped_malformed;
  pass.source_ok = source.ok();
}

/// Plain Vids on its own scheduler, as capture::RunSource drives it.
struct DirectEngine {
  sim::Scheduler scheduler;
  ids::Vids vids{scheduler};
};

size_t FactEntries(const ids::CallStateFactBase& fb) {
  return fb.call_count() + fb.keyed_count() + fb.tombstone_count() +
         fb.media_index_count();
}

Pass ReplayDirect(const ReplayArgs& args, bool traced,
                  std::vector<uint32_t>& latency) {
  Pass pass;
  pass.traced = traced;
  pass.offered = args.packets;
  pass.first_timed = args.warmup;
  const int64_t s0 = Now();
  auto source = capture::PcapFileSource::Open(args.capture, ReadOptions());
  const int64_t s1 = Now();
  auto engine = std::make_unique<DirectEngine>();
  const int64_t s2 = Now();
  pass.open_s = static_cast<double>(s1 - s0) / 1e9;
  pass.setup_s = static_cast<double>(s2 - s0) / 1e9;

  sim::Scheduler& scheduler = engine->scheduler;
  ids::Vids& vids = engine->vids;
  const obs::Counter* sweeps = vids.metrics().FindCounter("vids.sweeps");
  const auto sweep_count = [sweeps] {
    return sweeps != nullptr ? sweeps->value() : 0;
  };
  const ids::CallStateFactBase& fb = vids.fact_base();
  std::vector<capture::TimedPacket> batch;
  batch.reserve(kBatch);
  Trace& trace = pass.trace;
  if (traced) {
    trace.first_ns.reserve(args.packets - args.warmup);
    trace.second_ns.reserve(args.packets - args.warmup);
  }

  uint64_t index = 0;
  size_t k = 0;
  bool timing = false;
  int64_t t_start = 0;
  uint64_t sweeps_at_start = 0;
  uint64_t events_at_start = 0;
  std::vector<std::pair<std::string, uint64_t>> at_start;
  const char* const kCounters[] = {"efsm.transitions", "efsm.deviations",
                                   "vids.orphan_rtp", "vids.alerts",
                                   "vids.alerts_suppressed"};
  sim::Time next_sample;
  int64_t prev = Now();
  for (;;) {
    // Untraced passes chain one clock read per call; traced passes bracket
    // every call on its own.
    const int64_t pull_start = traced ? Now() : prev;
    const size_t n = source->PullBatch(batch, kBatch);
    prev = Now();
    if (!timing && n > 0 && index >= args.warmup) {
      timing = true;
      t_start = pull_start;
      sweeps_at_start = sweep_count();
      events_at_start = scheduler.ExecutedEvents();
      for (const char* name : kCounters) {
        at_start.emplace_back(name, CounterValue(vids.metrics(), name));
      }
      next_sample = batch.front().when;
    }
    if (traced && timing) trace.pull_ns.push_back(Clamp32(prev - pull_start));
    if (n == 0) break;
    for (capture::TimedPacket& packet : batch) {
      if (!traced || !timing) {
        if (packet.when > scheduler.Now()) scheduler.RunUntil(packet.when);
        vids.Inspect(packet.dgram, packet.from_outside);
        const int64_t t = Now();
        if (timing && k < latency.size()) latency[k++] = Clamp32(t - prev);
        prev = t;
        ++index;
        continue;
      }
      if (packet.when >= next_sample) {
        // Tracked state at a fixed simulated instant; excluded from the
        // replay time and from every layer.
        const int64_t x0 = Now();
        pass.samples.push_back(StateSample{fb.MemoryBytes(), FactEntries(fb),
                                           vids.behavior().profile_count()});
        while (next_sample <= packet.when) {
          next_sample = next_sample + args.workload.sample_every;
        }
        pass.excluded_ns += Now() - x0;
      }
      const uint64_t sw0 = sweep_count();
      const uint64_t ev0 = scheduler.ExecutedEvents();
      const size_t entries = FactEntries(fb);
      const int64_t a = Now();
      if (packet.when > scheduler.Now()) scheduler.RunUntil(packet.when);
      const int64_t b = Now();
      // One counter load inside the Inspect span: Inspect may sweep too.
      const uint64_t sw1 = sweep_count();
      vids.Inspect(packet.dgram, packet.from_outside);
      const int64_t c = Now();
      const uint64_t ev1 = scheduler.ExecutedEvents();  // Inspect runs none
      const uint32_t run_ns = Clamp32(b - a);
      const uint32_t inspect_ns = Clamp32(c - b);
      trace.first_ns.push_back(run_ns);
      trace.second_ns.push_back(inspect_ns);
      if (sw1 != sw0) {
        trace.sweeps.push_back(
            SweepSpan{index, run_ns, static_cast<uint32_t>(entries)});
      } else if (ev1 != ev0) {
        trace.timer_ns += run_ns;
        trace.timer_events += ev1 - ev0;
      }
      if (sweep_count() != sw1) {
        trace.sweeps.push_back(
            SweepSpan{index, inspect_ns, static_cast<uint32_t>(entries)});
      }
      ++index;
    }
  }
  // Drain: run the engine up to the capture's vouched end.
  const uint64_t sw_drain = sweep_count();
  const uint64_t ev_drain = scheduler.ExecutedEvents();
  const size_t entries_drain = FactEntries(fb);
  const int64_t drain_start = Now();
  if (source->clock() > scheduler.Now()) scheduler.RunUntil(source->clock());
  const int64_t t_end = Now();
  if (timing) {
    pass.replay_ns = t_end - t_start;
    pass.timed = index - args.warmup;
    pass.sweeps = sweep_count() - sweeps_at_start;
    if (traced) {
      trace.drain_ns = t_end - drain_start;
      if (sweep_count() != sw_drain) {
        trace.sweeps.push_back(SweepSpan{index, Clamp32(trace.drain_ns),
                                         static_cast<uint32_t>(entries_drain)});
      } else if (scheduler.ExecutedEvents() != ev_drain) {
        trace.timer_ns += static_cast<double>(trace.drain_ns);
        trace.timer_events += scheduler.ExecutedEvents() - ev_drain;
      }
      pass.counters.emplace_back(
          "sim.events",
          static_cast<double>(scheduler.ExecutedEvents() - events_at_start));
      for (const auto& [name, v0] : at_start) {
        pass.counters.emplace_back(
            name, static_cast<double>(CounterValue(vids.metrics(), name) - v0));
      }
    }
  }
  latency.resize(k);
  FinishSource(*source, pass);
  pass.digest = AlertDigest(vids.alerts(), &pass.alerts, &pass.health_alerts);
  return pass;
}

Pass ReplaySharded(const ReplayArgs& args, bool traced,
                   std::vector<uint32_t>& latency) {
  Pass pass;
  pass.sharded = true;
  pass.traced = traced;
  pass.offered = args.packets;
  pass.first_timed = args.warmup;
  const int64_t s0 = Now();
  auto source = capture::PcapFileSource::Open(args.capture, ReadOptions());
  const int64_t s1 = Now();
  auto engine = std::make_unique<ids::ShardedIds>(ShardedSetup());
  const int64_t s2 = Now();
  pass.open_s = static_cast<double>(s1 - s0) / 1e9;
  pass.setup_s = static_cast<double>(s2 - s0) / 1e9;

  std::vector<capture::TimedPacket> batch;
  batch.reserve(kBatch);
  Trace& trace = pass.trace;
  if (traced) trace.first_ns.reserve(args.packets - args.warmup);

  uint64_t index = 0;
  size_t k = 0;
  bool timing = false;
  int64_t t_start = 0;
  sim::Time next_sample;
  sim::Time last_when = sim::Time::FromNanos(-1);
  int64_t prev = Now();
  for (;;) {
    // Untraced passes chain one clock read per call; traced passes bracket
    // every call on its own.
    const int64_t pull_start = traced ? Now() : prev;
    const size_t n = source->PullBatch(batch, kBatch);
    prev = Now();
    if (!timing && n > 0 && index >= args.warmup) {
      timing = true;
      t_start = pull_start;
      next_sample = batch.front().when;
    }
    if (traced && timing) trace.pull_ns.push_back(Clamp32(prev - pull_start));
    if (n == 0) break;
    for (capture::TimedPacket& packet : batch) {
      if (traced && timing && packet.when >= next_sample &&
          packet.when > last_when) {
        // Flush barrier just before this instant (post-Flush ingest must
        // carry later times), then read the quiescent shard state.
        const int64_t x0 = Now();
        engine->Flush(packet.when - sim::Duration::Nanos(1));
        pass.samples.push_back(StateSample{engine->MemoryBytes(),
                                           engine->TrackedState(),
                                           engine->behavior().profile_count()});
        while (next_sample <= packet.when) {
          next_sample = next_sample + args.workload.sample_every;
        }
        pass.excluded_ns += Now() - x0;
      }
      if (traced && timing) prev = Now();
      engine->Ingest(packet.dgram, packet.from_outside, packet.when);
      const int64_t t = Now();
      if (timing) {
        if (traced) {
          trace.first_ns.push_back(Clamp32(t - prev));
        } else if (k < latency.size()) {
          latency[k++] = Clamp32(t - prev);
        }
      }
      prev = t;
      last_when = packet.when;
      ++index;
    }
  }
  const int64_t flush_start = Now();
  engine->Flush(source->clock());
  const int64_t t_end = Now();
  if (timing) {
    pass.replay_ns = t_end - t_start;
    pass.timed = index - args.warmup;
    if (traced) trace.drain_ns = t_end - flush_start;
  }
  latency.resize(k);
  FinishSource(*source, pass);

  if (traced) {
    // Post-Flush reads of the engine's own exports (whole pass).
    const obs::MetricsRegistry merged = engine->MergedMetrics();
    merged.VisitCounters([&pass](std::string_view name, const obs::Counter& c) {
      if (name.rfind("shard.", 0) != 0) {
        pass.counters.emplace_back(std::string(name),
                                   static_cast<double>(c.value()));
      }
    });
    pass.counters.emplace_back("sharded.ingest_stalls_total",
                               static_cast<double>(engine->ingest_stalls()));
    uint64_t max_packets = 0;
    uint64_t sum_packets = 0;
    for (int i = 0; i < engine->shards(); ++i) {
      const uint64_t p = engine->shard_vids(i).stats().packets;
      max_packets = std::max(max_packets, p);
      sum_packets += p;
    }
    pass.counters.emplace_back(
        "sharded.shard_skew",
        sum_packets == 0 ? 0.0
                         : static_cast<double>(max_packets) *
                               engine->shards() /
                               static_cast<double>(sum_packets));
    const auto quantile = [&merged](std::string_view name, double q) {
      // Rank-interpolated inside the engine's log2 bucket: direction only.
      const obs::Histogram* h = merged.FindHistogram(name);
      if (h == nullptr || h->count() == 0) return 0.0;
      const double rank = q * static_cast<double>(h->count());
      double seen = 0;
      for (size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
        const double in_bucket = static_cast<double>(h->buckets()[b]);
        if (in_bucket > 0 && seen + in_bucket >= rank) {
          const double lo =
              b == 0 ? 0.0
                     : static_cast<double>(obs::Histogram::BucketBound(b - 1));
          const double hi = static_cast<double>(obs::Histogram::BucketBound(b));
          const double v = lo + (hi - lo) * (rank - seen) / in_bucket;
          return std::clamp(v, static_cast<double>(h->min()),
                            static_cast<double>(h->max()));
        }
        seen += in_bucket;
      }
      return static_cast<double>(h->max());
    };
    pass.counters.emplace_back("lat.inspect_p50_ns",
                               quantile("lat.inspect", 0.5));
    pass.counters.emplace_back("lat.ingest_to_dequeue_p50_ns",
                               quantile("lat.ingest_to_dequeue", 0.5));
    const obs::Histogram* committed =
        merged.FindHistogram("pipeline.batch.committed");
    pass.counters.emplace_back("pipeline.batch_committed_mean",
                               committed != nullptr ? committed->Mean() : 0.0);
  }
  engine->Stop();
  pass.digest =
      AlertDigest(engine->alerts(), &pass.alerts, &pass.health_alerts);
  return pass;
}

volatile uint64_t probe_sink = 0;

/// Times two fixed loops (a few ms each) that depend on the host alone:
/// a dependent multiply chain, which slows with the core clock, and a
/// dependent walk of 50k loads 64 KiB apart through a fresh 8 MiB mapping,
/// which slows with last-level cache and memory contention from other
/// tenants. When two runs of the same code differ and their probes differ
/// alike, the host changed speed between them. The mapping is returned
/// before the pass and bypasses malloc, so it changes neither the peak RSS
/// nor the allocator state the engine sees.
HostProbe ProbeHost() {
  HostProbe probe;
  uint64_t x = probe_sink | 1;
  const int64_t c0 = Now();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
  }
  probe.core_ms = static_cast<double>(Now() - c0) / 1e6;

  constexpr size_t kEntries = size_t{1} << 21;  // 8 MiB of uint32_t
  constexpr uint32_t kStride = 16411;           // odd: one cycle over all
  const size_t bytes = kEntries * sizeof(uint32_t);
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map != MAP_FAILED) {
    auto* table = static_cast<uint32_t*>(map);
    // Zero, but opaque to the compiler so that it keeps every load.
    std::fill_n(table, kEntries, static_cast<uint32_t>(probe_sink >> 40));
    uint32_t at = 0;
    const int64_t m0 = Now();
    for (int i = 0; i < 50'000; ++i) {
      at = (at + kStride + table[at]) & (kEntries - 1);
    }
    probe.memory_ms = static_cast<double>(Now() - m0) / 1e6;
    x += at;
    munmap(map, bytes);
  }
  probe_sink = x >> 44;  // stays below 2^20, so the table fill stays 0
  return probe;
}

Pass ReplayPass(const ReplayArgs& args, bool sharded, bool traced,
                std::vector<uint32_t>& latency) {
  const HostProbe probe = ProbeHost();
  Pass pass = sharded ? ReplaySharded(args, traced, latency)
                      : ReplayDirect(args, traced, latency);
  pass.probe = probe;
  return pass;
}

// ---------------------------------------------------------- side pass

/// Per-packet classes plus the classifier / lazy-SIP-index costs, from a
/// standalone PacketClassifier and sip::LazyMessage over the same capture.
struct SidePass {
  std::vector<uint8_t> classes;
  double classify_ns[4] = {0, 0, 0, 0};
  uint64_t classify_n[4] = {0, 0, 0, 0};
  double index_ns = 0;
  uint64_t index_n = 0;
  double clock_ns = 0;  // cost of one clock read, subtracted from each call
};

double ClockReadNs() {
  std::vector<int64_t> d(2001);
  for (auto& v : d) {
    const int64_t a = Now();
    v = Now() - a;
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return static_cast<double>(d[1000]);
}

SidePass RunSidePass(const ReplayArgs& args) {
  SidePass side;
  side.clock_ns = ClockReadNs();
  auto source = capture::PcapFileSource::Open(args.capture, ReadOptions());
  ids::PacketClassifier classifier;
  sip::LazyMessage lazy;
  side.classes.reserve(args.packets);
  std::vector<capture::TimedPacket> batch;
  batch.reserve(kBatch);
  while (source->PullBatch(batch, kBatch) > 0) {
    for (const capture::TimedPacket& packet : batch) {
      const int64_t a = Now();
      const ids::ClassifiedPacket* c =
          classifier.Classify(packet.dgram, packet.from_outside);
      const int64_t b = Now();
      const PacketClass cls = ClassOf(c);
      side.classes.push_back(cls);
      side.classify_ns[cls] += static_cast<double>(b - a) - side.clock_ns;
      ++side.classify_n[cls];
      if (cls == kSip) {
        const int64_t x = Now();
        const bool indexed = lazy.Index(packet.dgram.payload);
        const int64_t y = Now();
        if (indexed) {
          side.index_ns += static_cast<double>(y - x) - side.clock_ns;
          ++side.index_n;
        }
      }
    }
  }
  return side;
}

// ------------------------------------------------------------- reporting

double Percentile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024.0 / 1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintPass(int number, const Pass& pass, const ReplayArgs& args,
               const std::vector<double>* pcts) {
  std::printf("pass %d [%s%s]: probe core %.3f / memory %.3f ms, setup %.4f "
              "s, %" PRIu64 " timed packets in %.4f s = %.0f pkt/s",
              number, pass.sharded ? "sharded" : "direct",
              pass.traced ? ", traced" : "", pass.probe.core_ms,
              pass.probe.memory_ms, pass.setup_s, pass.timed,
              pass.TimedReplayNs() / 1e9,
              pass.timed * 1e9 / std::max(1.0, pass.TimedReplayNs()));
  if (pcts != nullptr) {
    std::printf(", p50 %.2f us, p99 %.2f us, p99.99 %.2f us (%" PRIu64
                " samples)",
                (*pcts)[0] / 1e3, (*pcts)[1] / 1e3, (*pcts)[2] / 1e3,
                pass.timed);
  }
  if (!pass.sharded && pass.timed > 0) {
    std::printf(", sweep-carrying %.4f%%",
                100.0 * static_cast<double>(pass.sweeps) /
                    static_cast<double>(pass.timed));
  }
  std::printf("\n  checks: source %s, skipped %" PRIu64 ", delivered %" PRIu64
              "/%" PRIu64 ", alerts %zu (+%zu engine-health), digest %s %s\n",
              pass.source_ok ? "ok" : "FAULT", pass.skipped, pass.delivered,
              pass.offered, pass.alerts, pass.health_alerts,
              pass.digest.c_str(),
              pass.DigestOk(args.digest) ? "ok" : "MISMATCH");
}

/// Host-speed probe medians over the passes of a run, for comparing runs.
void PrintProbeMedians(const std::vector<HostProbe>& probes) {
  std::vector<double> core, memory;
  for (const HostProbe& probe : probes) {
    core.push_back(probe.core_ms);
    memory.push_back(probe.memory_ms);
  }
  std::printf("host-speed probe medians: core %.3f ms, memory %.3f ms\n",
              Median(core), Median(memory));
}

/// End-to-end run: whole passes until the time budget is spent.
int RunEndToEnd(const ReplayArgs& args) {
  const bool sharded = args.workload.sharded;
  std::vector<uint32_t> latency;
  std::vector<double> throughput, setup, p50, p99, p9999;
  std::vector<HostProbe> probes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start = Now();
  constexpr int kMaxPasses = 200;
  for (int number = 1; number <= kMaxPasses; ++number) {
    latency.assign(args.packets > args.warmup ? args.packets - args.warmup : 0,
                   0);
    Pass pass = ReplayPass(args, sharded, false, latency);
    std::vector<double> pcts = {Percentile(latency, 0.50),
                                Percentile(latency, 0.99),
                                Percentile(latency, 0.9999)};
    PrintPass(number, pass, args, &pcts);
    attempted += pass.offered;
    failed += pass.Failed(args.digest);
    correct = correct && pass.Correct(args.digest);
    if (pass.timed > 0 && pass.replay_ns > 0) {
      throughput.push_back(static_cast<double>(pass.timed) * 1e9 /
                           static_cast<double>(pass.replay_ns));
    }
    setup.push_back(pass.setup_s);
    probes.push_back(pass.probe);
    p50.push_back(pcts[0] / 1e3);
    p99.push_back(pcts[1] / 1e3);
    p9999.push_back(pcts[2] / 1e3);
    if (Now() - start >= budget_ns) break;
  }
  const std::vector<Metric> metrics = {
      {"throughput_pps", Median(throughput), "1/s"},
      {"pkt_p50_us", Median(p50), "us"},
      {"pkt_p99_us", Median(p99), "us"},
      {"pkt_p9999_us", Median(p9999), "us"},
      {"rss_mb_peak", PeakRssMb(), "MB"},
      {"setup_s", Median(setup), "s"},
  };
  PrintProbeMedians(probes);
  std::printf("%zu passes; fail_frac %.6f (%" PRIu64 " of %" PRIu64
              " packets failed)\n",
              setup.size(),
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              failed, attempted);
  if (throughput.empty()) correct = false;
  PrintResult(correct, std::max<uint64_t>(attempted, 1),
              attempted == 0 ? 1 : failed, metrics);
  return correct ? 0 : 1;
}

double CounterOf(const Pass& pass, std::string_view name) {
  for (const auto& [n, v] : pass.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// The side pass's class of the packet at capture position `index`.
uint8_t ClassAt(const std::vector<uint8_t>& classes, size_t index) {
  return index < classes.size() ? classes[index] : uint8_t{kOther};
}

const char* ClassName(uint8_t cls) {
  static const char* const kNames[] = {"sip", "rtp", "rtcp", "other"};
  return cls < 4 ? kNames[cls] : "other";
}

/// Writes a traced pass's spans as tab-separated rows, one per layer call
/// of the timed segment (durations in ns).
void WriteSpans(const std::string& path, const Pass& pass,
                const std::vector<uint8_t>& classes) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const Trace& trace = pass.trace;
  std::fprintf(f, "# %s engine; columns: kind, packet index or batch, "
                  "class, ns, second ns (direct: RunUntil then Inspect; "
                  "sharded: Ingest) or fact-base entries (sweep)\n",
               pass.sharded ? "sharded" : "direct");
  for (size_t i = 0; i < trace.pull_ns.size(); ++i) {
    std::fprintf(f, "pull\t%zu\t-\t%u\t-\n", i, trace.pull_ns[i]);
  }
  for (size_t i = 0; i < trace.first_ns.size(); ++i) {
    const size_t index = pass.first_timed + i;
    const uint8_t cls = ClassAt(classes, index);
    if (pass.sharded) {
      std::fprintf(f, "ingest\t%zu\t%s\t%u\t-\n", index, ClassName(cls),
                   trace.first_ns[i]);
    } else {
      std::fprintf(f, "packet\t%zu\t%s\t%u\t%u\n", index, ClassName(cls),
                   trace.first_ns[i], trace.second_ns[i]);
    }
  }
  for (const SweepSpan& s : trace.sweeps) {
    std::fprintf(f, "sweep\t%" PRIu64 "\t-\t%u\t%u\n", s.packet, s.ns,
                 s.entries);
  }
  std::fprintf(f, "%s\t-\t-\t%" PRId64 "\t-\n",
               pass.sharded ? "flush" : "drain", trace.drain_ns);
  std::fclose(f);
}

double Sum(const std::vector<uint32_t>& v) {
  double total = 0;
  for (const uint32_t x : v) total += x;
  return total;
}

/// Per-layer metrics of a traced direct pass.
void DirectLedger(const Pass& pass, const SidePass& side, double open_s,
                  double capture_mb, std::vector<Metric>& out) {
  const Trace& trace = pass.trace;
  const double pull = Sum(trace.pull_ns);
  const double run = Sum(trace.first_ns) + static_cast<double>(trace.drain_ns);
  double inspect = 0;
  double inspect_by[4] = {0, 0, 0, 0};
  uint64_t inspect_n[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < trace.second_ns.size(); ++i) {
    const size_t index = pass.first_timed + i;
    const uint8_t cls = ClassAt(side.classes, index);
    inspect += trace.second_ns[i];
    inspect_by[cls] += trace.second_ns[i];
    ++inspect_n[cls];
  }
  std::vector<double> sweep_ms;
  double sweep_ns = 0;
  double sweep_entries = 0;
  size_t entries_peak = 0;
  for (const SweepSpan& s : trace.sweeps) {
    sweep_ms.push_back(s.ns / 1e6);
    sweep_ns += s.ns;
    sweep_entries += s.entries;
    entries_peak = std::max<size_t>(entries_peak, s.entries);
  }
  size_t mem_peak = 0, profiles_peak = 0;
  for (const StateSample& sample : pass.samples) {
    mem_peak = std::max(mem_peak, sample.memory_bytes);
    entries_peak = std::max(entries_peak, sample.entries);
    profiles_peak = std::max(profiles_peak, sample.profiles);
  }
  const double replay = std::max(1.0, pass.TimedReplayNs());
  const double timed = std::max<double>(1.0, static_cast<double>(pass.timed));
  const auto mean = [](double sum, uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const double classify_sip = mean(side.classify_ns[kSip], side.classify_n[kSip]);
  const double classify_rtp = mean(side.classify_ns[kRtp], side.classify_n[kRtp]);
  const double inspect_sip = mean(inspect_by[kSip], inspect_n[kSip]);
  const double inspect_rtp = mean(inspect_by[kRtp], inspect_n[kRtp]);
  const double emitted = CounterOf(pass, "vids.alerts");
  const double suppressed = CounterOf(pass, "vids.alerts_suppressed");
  out.push_back({"capture.open_ms", open_s * 1e3, "ms"});
  out.push_back({"capture.open_mb_per_s", capture_mb / std::max(1e-9, open_s),
                 "MB/s"});
  out.push_back({"capture.pull_ns_per_pkt", pull / timed, "ns"});
  out.push_back({"capture.pull_share", pull / replay, "ratio"});
  out.push_back({"sim.rununtil_share", run / replay, "ratio"});
  out.push_back({"sim.events_executed", CounterOf(pass, "sim.events"),
                 "count"});
  out.push_back({"sim.timer_ns_per_event",
                 mean(trace.timer_ns, trace.timer_events), "ns"});
  out.push_back({"fact_base.sweeps", static_cast<double>(sweep_ms.size()),
                 "count"});
  out.push_back({"fact_base.sweep_ms_p50", Median(sweep_ms), "ms"});
  out.push_back({"fact_base.sweep_ms_max",
                 sweep_ms.empty() ? 0.0
                                  : *std::max_element(sweep_ms.begin(),
                                                      sweep_ms.end()),
                 "ms"});
  out.push_back({"fact_base.sweep_ns_per_entry",
                 sweep_entries > 0 ? sweep_ns / sweep_entries : 0.0, "ns"});
  out.push_back({"fact_base.entries_peak", static_cast<double>(entries_peak),
                 "count"});
  out.push_back({"fact_base.state_mb_peak", static_cast<double>(mem_peak) / 1e6,
                 "MB"});
  out.push_back({"fact_base.sweep_pkt_share",
                 static_cast<double>(trace.sweeps.size()) / timed, "ratio"});
  out.push_back({"classify.sip_ns", classify_sip, "ns"});
  out.push_back({"classify.rtp_ns", classify_rtp, "ns"});
  out.push_back({"sip.index_ns", mean(side.index_ns, side.index_n), "ns"});
  out.push_back({"inspect.rtp_ns", inspect_rtp, "ns"});
  out.push_back({"inspect.sip_ns", inspect_sip, "ns"});
  out.push_back({"inspect.share", inspect / replay, "ratio"});
  out.push_back({"inspect.rtp_share", inspect_by[kRtp] / replay, "ratio"});
  out.push_back({"distribute.rtp_ns", inspect_rtp - classify_rtp, "ns"});
  out.push_back({"distribute.sip_ns", inspect_sip - classify_sip, "ns"});
  out.push_back({"efsm.transitions_per_pkt",
                 CounterOf(pass, "efsm.transitions") / timed, "ratio"});
  out.push_back({"efsm.deviations", CounterOf(pass, "efsm.deviations"),
                 "count"});
  out.push_back({"vids.orphan_rtp", CounterOf(pass, "vids.orphan_rtp"),
                 "count"});
  out.push_back({"alert.emitted", emitted, "count"});
  out.push_back({"alert.suppressed_share",
                 emitted + suppressed > 0 ? suppressed / (emitted + suppressed)
                                          : 0.0,
                 "ratio"});
  out.push_back({"behavior.profiles_peak", static_cast<double>(profiles_peak),
                 "count"});
  out.push_back({"direct.unattributed_share",
                 1.0 - (pull + run + inspect) / replay, "ratio"});
}

/// Per-layer metrics of a traced sharded pass.
void ShardedLedger(const Pass& pass, std::vector<Metric>& out) {
  const Trace& trace = pass.trace;
  const double pull = Sum(trace.pull_ns);
  const double ingest = Sum(trace.first_ns);
  const double flush = static_cast<double>(trace.drain_ns);
  size_t mem_peak = 0;
  for (const StateSample& sample : pass.samples) {
    mem_peak = std::max(mem_peak, sample.memory_bytes);
  }
  const double replay = std::max(1.0, pass.TimedReplayNs());
  const double timed = std::max<double>(1.0, static_cast<double>(pass.timed));
  const double kpkt = std::max(1.0, static_cast<double>(pass.delivered) / 1e3);
  const double owner = CounterOf(pass, "sharded.endpoint_owner_routed");
  const double hashed = CounterOf(pass, "sharded.endpoint_hash_routed");
  const double full = CounterOf(pass, "pipeline.flush.full");
  const double deadline = CounterOf(pass, "pipeline.flush.deadline");
  const double barrier = CounterOf(pass, "pipeline.flush.barrier");
  out.push_back({"sharded.ingest_ns_per_pkt", ingest / timed, "ns"});
  out.push_back({"sharded.ingest_share", ingest / replay, "ratio"});
  out.push_back({"sharded.pull_share", pull / replay, "ratio"});
  out.push_back({"sharded.stalls_per_kpkt",
                 CounterOf(pass, "sharded.ingest_stalls_total") / kpkt,
                 "1/kpkt"});
  out.push_back({"sharded.flush_ms", flush / 1e6, "ms"});
  out.push_back({"sharded.shard_skew", CounterOf(pass, "sharded.shard_skew"),
                 "ratio"});
  out.push_back({"sharded.owner_routed_share",
                 owner + hashed > 0 ? owner / (owner + hashed) : 0.0, "ratio"});
  out.push_back({"sharded.agg_events_per_kpkt",
                 CounterOf(pass, "sharded.agg_events") / kpkt, "1/kpkt"});
  out.push_back({"sharded.worker_stalls", CounterOf(pass, "sharded.worker_stalls"),
                 "count"});
  out.push_back({"sharded.watchdog_stalls",
                 static_cast<double>(pass.health_alerts), "count"});
  out.push_back({"sharded.state_mb_peak", static_cast<double>(mem_peak) / 1e6,
                 "MB"});
  out.push_back({"sharded.unattributed_share",
                 1.0 - (pull + ingest + flush) / replay, "ratio"});
  out.push_back({"pipeline.batch_committed_mean",
                 CounterOf(pass, "pipeline.batch_committed_mean"), "count"});
  out.push_back({"pipeline.flush_deadline_share",
                 full + deadline + barrier > 0
                     ? deadline / (full + deadline + barrier)
                     : 0.0,
                 "ratio"});
  out.push_back({"lat.inspect_p50_us",
                 CounterOf(pass, "lat.inspect_p50_ns") / 1e3, "us"});
  out.push_back({"lat.ingest_to_dequeue_p50_us",
                 CounterOf(pass, "lat.ingest_to_dequeue_p50_ns") / 1e3, "us"});
}

/// Traced run: the per-layer ledger.
int RunLedger(const ReplayArgs& args) {
  const bool sharded = args.workload.sharded;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  const auto account = [&](const Pass& pass) {
    attempted += pass.offered;
    failed += pass.Failed(args.digest);
    correct = correct && pass.Correct(args.digest) && pass.timed > 0;
  };

  const SidePass side = RunSidePass(args);
  std::printf("side pass: %zu packets classified; clock read %.1f ns\n",
              side.classes.size(), side.clock_ns);

  const size_t timed_packets =
      args.packets > args.warmup ? args.packets - args.warmup : 0;
  std::vector<uint32_t> latency;
  std::vector<HostProbe> probes;
  const auto pass = [&](bool on_sharded, bool traced) {
    latency.assign(timed_packets, 0);
    Pass p = ReplayPass(args, on_sharded, traced, latency);
    account(p);
    probes.push_back(p.probe);
    return p;
  };

  // Untraced and traced passes of the workload's engine alternate while the
  // time budget lasts, so tracing overhead compares medians rather than one
  // noisy pair; the primary ledger is the per-metric median over the
  // traced passes.
  constexpr int kMaxPairs = 5;
  const int64_t start = Now();
  std::vector<double> untraced_ns, traced_ns, open_s;
  std::vector<std::vector<Metric>> primary;
  Pass traced;
  int number = 0;
  for (int pair = 0; pair < kMaxPairs; ++pair) {
    const Pass plain = pass(sharded, false);
    PrintPass(++number, plain, args, nullptr);
    untraced_ns.push_back(plain.TimedReplayNs());
    open_s.push_back(plain.open_s);
    traced = pass(sharded, true);
    PrintPass(++number, traced, args, nullptr);
    traced_ns.push_back(traced.TimedReplayNs());
    open_s.push_back(traced.open_s);
    primary.emplace_back();
    if (sharded) {
      ShardedLedger(traced, primary.back());
    } else {
      DirectLedger(traced, side, traced.open_s, args.capture_mb,
                   primary.back());
    }
    if (Now() - start >= static_cast<int64_t>(args.seconds * 1e9)) break;
  }
  WriteSpans(args.spans, traced, side.classes);
  std::vector<Metric> primary_ledger = primary.front();
  for (size_t i = 0; i < primary_ledger.size(); ++i) {
    std::vector<double> values;
    for (const auto& ledger : primary) values.push_back(ledger[i].value);
    primary_ledger[i].value = Median(values);
  }

  // One traced pass of the other engine over the same bytes, so every
  // layer of the ledger is measured on every workload.
  const Pass other = pass(!sharded, true);
  PrintPass(++number, other, args, nullptr);
  std::vector<Metric> other_ledger;
  if (sharded) {
    DirectLedger(other, side, Median(open_s), args.capture_mb, other_ledger);
  } else {
    ShardedLedger(other, other_ledger);
  }

  std::vector<Metric> metrics = sharded ? other_ledger : primary_ledger;
  const std::vector<Metric>& tail = sharded ? primary_ledger : other_ledger;
  metrics.insert(metrics.end(), tail.begin(), tail.end());
  const std::string_view primary_unattributed =
      sharded ? "sharded.unattributed_share" : "direct.unattributed_share";
  double unattributed_share = 0;
  for (const Metric& m : metrics) {
    if (m.name == primary_unattributed) unattributed_share = m.value;
  }
  const double untraced_median = std::max(1.0, Median(untraced_ns));
  const double traced_median = Median(traced_ns);
  const double trace_overhead = traced_median / untraced_median - 1.0;
  // The top-level layers of the traced passes against the untraced replay
  // time they stand for.
  const double ledger_ratio =
      (1.0 - unattributed_share) * traced_median / untraced_median;
  constexpr double kLedgerTolerance = 0.25;
  const double ledger_error = std::fabs(ledger_ratio - 1.0);
  metrics.push_back({"trace_overhead", trace_overhead, "ratio"});
  metrics.push_back({"unattributed_share", unattributed_share, "ratio"});
  metrics.push_back({"ledger_error", ledger_error, "ratio"});

  std::printf("\nper-layer ledger (%s engine primary, median of %zu traced "
              "passes; timed segment)\n",
              sharded ? "sharded" : "direct", primary.size());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("top-level layers cover %.2f%% of the traced replay time "
              "(unattributed %.2f%%); tracing overhead %.2f%%; the layers sum "
              "to %.1f%% of the untraced replay time, %s the +-%.0f%% ledger "
              "tolerance\n",
              100.0 * (1.0 - unattributed_share), 100.0 * unattributed_share,
              100.0 * trace_overhead, 100.0 * ledger_ratio,
              ledger_error <= kLedgerTolerance ? "within" : "OUTSIDE",
              100.0 * kLedgerTolerance);
  PrintProbeMedians(probes);
  std::printf("fail_frac %.6f (%" PRIu64 " of %" PRIu64 " packets failed)\n",
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              failed, attempted);
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------- main

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wire_bench generate --workload W --seed S [--toy] "
               "--out FILE\n"
               "       wire_bench replay --workload W --capture FILE "
               "--packets N --warmup N --digest HEX --seconds S --trace 0|1 "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const char* workload_name = Flag(argc, argv, "--workload");
  if (workload_name == nullptr) return Usage();
  const bool toy = HasFlag(argc, argv, "--toy");
  const auto workload = FindWorkload(workload_name, toy);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", workload_name);
    return 2;
  }
  if (command == "generate") {
    const char* seed = Flag(argc, argv, "--seed");
    const char* out = Flag(argc, argv, "--out");
    if (seed == nullptr || out == nullptr) return Usage();
    return Generate(*workload, std::strtoull(seed, nullptr, 10), toy, out);
  }
  if (command == "replay") {
    ReplayArgs args;
    args.workload = *workload;
    const char* capture = Flag(argc, argv, "--capture");
    const char* packets = Flag(argc, argv, "--packets");
    const char* warmup = Flag(argc, argv, "--warmup");
    const char* digest = Flag(argc, argv, "--digest");
    const char* seconds = Flag(argc, argv, "--seconds");
    const char* trace = Flag(argc, argv, "--trace");
    if (capture == nullptr || packets == nullptr || warmup == nullptr ||
        digest == nullptr || seconds == nullptr || trace == nullptr) {
      return Usage();
    }
    args.capture = capture;
    args.packets = std::strtoull(packets, nullptr, 10);
    args.warmup = std::strtoull(warmup, nullptr, 10);
    args.digest = digest;
    args.seconds = std::strtod(seconds, nullptr);
    args.trace = std::strcmp(trace, "1") == 0;
    if (const char* spans = Flag(argc, argv, "--spans")) args.spans = spans;
    std::error_code size_error;
    const auto capture_bytes =
        std::filesystem::file_size(args.capture, size_error);
    args.capture_mb =
        size_error ? 0.0 : static_cast<double>(capture_bytes) / 1e6;
    if (args.warmup % kBatch != 0 || args.warmup >= args.packets) {
      std::fprintf(stderr, "warm-up must be a whole number of batches "
                           "shorter than the capture\n");
      return 2;
    }
    return args.trace ? RunLedger(args) : RunEndToEnd(args);
  }
  return Usage();
}
