// MICRO: google-benchmark microbenchmarks of the vIDS hot path — the
// supporting numbers behind the CPU/latency claims: parse costs, EFSM
// transition cost, per-call state construction, full Inspect() cost.
//
// The hot-path benchmarks also report allocs_per_iter via counting global
// operator new/delete — the "zero-allocation steady state" claim is a
// number here, not a comment.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "obs/metrics.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"
#include "vids/spec_machines.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// GCC pairs allocation functions by body and flags free() on a pointer
// from the malloc-backed replacement operator new above — a false
// positive, as both sides of the pair are replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace vids;

namespace {

/// Attaches an allocations-per-iteration counter to `state`; construct
/// before the benchmark loop, destroy after it ends.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(g_alloc_count.load()) {}
  ~AllocCounter() {
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(g_alloc_count.load() - start_) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};

sip::Message TypicalInvite(const std::string& call_id,
                           net::Endpoint offer_media) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-alice");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(offer_media).Serialize(),
                 "application/sdp");
  return invite;
}

sip::Message TypicalInvite(const std::string& call_id) {
  return TypicalInvite(call_id,
                       net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000});
}

void BM_SipParse(benchmark::State& state) {
  const std::string wire = TypicalInvite("bench").Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sip::Message::Parse(wire));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_SipParse);

void BM_SipSerialize(benchmark::State& state) {
  const auto invite = TypicalInvite("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(invite.Serialize());
  }
}
BENCHMARK(BM_SipSerialize);

void BM_SdpParse(benchmark::State& state) {
  const std::string body =
      sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000})
          .Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sdp::SessionDescription::Parse(body));
  }
}
BENCHMARK(BM_SdpParse);

void BM_RtpParse(benchmark::State& state) {
  rtp::RtpHeader header;
  header.ssrc = 0xABCD;
  header.sequence_number = 100;
  const std::string wire = header.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtp::RtpHeader::Parse(wire));
  }
}
BENCHMARK(BM_RtpParse);

void BM_ClassifySip(benchmark::State& state) {
  ids::PacketClassifier classifier;
  net::Datagram dgram;
  dgram.src = kProxyA;
  dgram.dst = kProxyB;
  dgram.payload = TypicalInvite("bench").Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Classify(dgram, true));
  }
}
BENCHMARK(BM_ClassifySip);

void BM_ClassifyRtp(benchmark::State& state) {
  ids::PacketClassifier classifier;
  rtp::RtpHeader header;
  net::Datagram dgram;
  dgram.src = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
  dgram.dst = net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000};
  dgram.payload = header.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Classify(dgram, true));
  }
}
BENCHMARK(BM_ClassifyRtp);

void BM_EfsmTransition(benchmark::State& state) {
  // One self-loop transition with a predicate and an action — the unit of
  // work per in-session RTP packet.
  ids::DetectionConfig config;
  const auto def = ids::BuildRtpSpecMachine(config);
  sim::Scheduler scheduler;
  efsm::GroupShape shape;
  shape.AddMachine(def, "RTP");
  efsm::MachineGroup group(shape, "bench", scheduler, nullptr);
  auto& machine = group.machine(0);
  group.global().Set("g_offer_ip", std::string("10.1.0.10"));
  group.global().Set("g_offer_port", int64_t{20000});
  group.global().Set("g_offer_pt", int64_t{18});
  efsm::Event offer;
  offer.name = std::string(ids::kSyncOffer);
  offer.args["ip"] = std::string("10.1.0.10");
  offer.args["port"] = int64_t{20000};
  offer.args["pt"] = int64_t{18};
  group.DeliverData(machine, offer);

  efsm::Event rtp_event;
  rtp_event.name = std::string(ids::kRtpEvent);
  rtp_event.args["src_ip"] = std::string("10.2.0.10");
  rtp_event.args["src_port"] = int64_t{30000};
  rtp_event.args["dst_ip"] = std::string("10.1.0.10");
  rtp_event.args["dst_port"] = int64_t{20000};
  rtp_event.args["ssrc"] = int64_t{7};
  rtp_event.args["seq"] = int64_t{1};
  rtp_event.args["ts"] = int64_t{80};
  rtp_event.args["pt"] = int64_t{18};
  group.DeliverData(machine, rtp_event);  // warmup: compile dispatch tables

  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.DeliverData(machine, rtp_event));
  }
}
BENCHMARK(BM_EfsmTransition);

void BM_EfsmTimerCycle(benchmark::State& state) {
  // Arm a timer, run the scheduler to its expiry, repeat — the unit of work
  // behind every detection window (T1), BYE grace (T) and linger timer.
  efsm::MachineDef def("timer-cycle");
  const auto idle = def.AddState("idle", efsm::StateKind::kInitial);
  const auto armed = def.AddState("armed");
  def.On(idle, "arm")
      .Do([](efsm::Context& c) {
        c.StartTimer("T", sim::Duration::Millis(1));
      })
      .To(armed, "timer T armed");
  def.On(armed, efsm::TimerEventName("T")).To(idle, "T expired");
  efsm::GroupShape shape;
  shape.AddMachine(def, "cycle");
  sim::Scheduler scheduler;
  efsm::MachineGroup group(shape, "bench", scheduler, nullptr);
  auto& machine = group.machine(0);
  efsm::Event arm;
  arm.name = "arm";
  // Warm-up: compile the dispatch tables and grow the scheduler's queue.
  group.DeliverData(machine, arm);
  scheduler.RunUntil(scheduler.Now() + sim::Duration::Millis(1));

  AllocCounter allocs(state);
  for (auto _ : state) {
    group.DeliverData(machine, arm);
    scheduler.RunUntil(scheduler.Now() + sim::Duration::Millis(1));
  }
  if (machine.StateName() != "idle") state.SkipWithError("timer never fired");
}
BENCHMARK(BM_EfsmTimerCycle);

void BM_VidsInspectSip(benchmark::State& state) {
  sim::Scheduler scheduler;
  // Short reclamation horizon + an advancing clock keep the live-call table
  // at a realistic steady state (~200 concurrent half-open calls). With a
  // frozen clock the sweep never fires and every iteration's fresh Call-ID
  // grows the call map without bound — the bench would end up measuring
  // hashtable rehash/collision cost, not Inspect().
  ids::DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(2);
  config.tombstone_ttl = sim::Duration::Seconds(2);
  // Every iteration is a *benign* fresh call aimed at one proxy; with the
  // default threshold (5 INVITEs/s per destination) the whole run would sit
  // inside a permanent INVITE-flood alarm and the bench would measure
  // alert provenance formatting instead of inspection.
  config.invite_flood_threshold = 1 << 20;
  ids::Vids vids(scheduler, config);
  net::Datagram dgram;
  dgram.src = kProxyA;
  dgram.dst = kProxyB;
  // Pre-serialized INVITE; each iteration patches the ten Call-ID digits in
  // place (the Via branch embeds the Call-ID, so both spots get patched) —
  // the measured cost is Inspect(), not message construction.
  static constexpr char kMarker[] = "c0000000000";
  dgram.payload = TypicalInvite(kMarker).Serialize();
  std::vector<size_t> digit_offsets;
  for (size_t pos = dgram.payload.find(kMarker); pos != std::string::npos;
       pos = dgram.payload.find(kMarker, pos + 1)) {
    digit_offsets.push_back(pos + 1);
  }
  uint64_t i = 0;
  char digits[16];
  AllocCounter allocs(state);
  for (auto _ : state) {
    // Fresh Call-ID each iteration: measures the worst case (group
    // creation + machine instantiation + first transition), so a nonzero
    // allocs_per_iter is expected here — the group is born on this packet.
    std::snprintf(digits, sizeof(digits), "%010llu",
                  static_cast<unsigned long long>(i++));
    for (const size_t offset : digit_offsets) {
      std::memcpy(&dgram.payload[offset], digits, 10);
    }
    benchmark::DoNotOptimize(vids.Inspect(dgram, true));
    // 10 ms of simulated time per call lets periodic sweeps reclaim idle
    // groups; the sweep's amortized cost is part of what a deployment pays
    // per packet, so it belongs inside the timed region.
    scheduler.RunUntil(scheduler.Now() + sim::Duration::Millis(10));
  }
}
BENCHMARK(BM_VidsInspectSip);

void BM_FactBaseChurn(benchmark::State& state) {
  // One call per iteration through the fact base alone: a fresh 32-byte
  // Call-ID, the two media endpoints its SDP offer and answer negotiate and
  // their per-endpoint pattern groups. The call idles out under a short
  // call_idle_timeout, and 10 ms of simulated time per iteration carries the
  // clock past the sweep, keyed-idle and tombstone horizons, so the periodic
  // sweeps reclaim calls, media groups and tombstones as fast as they are
  // admitted. allocs_per_iter covers the admission and the amortized sweeps;
  // once the tables and free lists are warm both recycle everything.
  ids::DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(1);
  config.keyed_idle_timeout = sim::Duration::Seconds(1);
  config.tombstone_ttl = sim::Duration::Seconds(1);
  sim::Scheduler scheduler;
  ids::CallStateFactBase fact_base(scheduler, config, nullptr);
  uint64_t call = 0;
  char call_id[33];
  const auto churn_one = [&] {
    std::snprintf(call_id, sizeof(call_id), "churn-%026llu",
                  static_cast<unsigned long long>(call));
    bool created = false;
    benchmark::DoNotOptimize(fact_base.AdmitCall(call_id, created));
    // Endpoints cycle through 10,000 hosts, far more than live at once,
    // whose dotted quads all have the same length: a recycled group keeps
    // its name's capacity, so only a longer name than it ever held would
    // allocate.
    const auto c = static_cast<uint8_t>(100 + call / 100 % 100);
    const auto d = static_cast<uint8_t>(100 + call % 100);
    const net::Endpoint offer{net::IpAddress(10, 1, c, d), 20000};
    const net::Endpoint answer{net::IpAddress(10, 2, c, d), 30000};
    fact_base.IndexMedia(offer, call_id);
    fact_base.IndexMedia(answer, call_id);
    fact_base.GetOrCreateMediaGroup(offer);
    fact_base.GetOrCreateMediaGroup(answer);
    ++call;
    scheduler.RunUntil(scheduler.Now() + sim::Duration::Millis(10));
  };
  // Warm-up: five simulated seconds fill the pipeline of live calls, media
  // groups and tombstones, and let the tables reach their steady size.
  for (int i = 0; i < 500; ++i) churn_one();
  AllocCounter allocs(state);
  for (auto _ : state) churn_one();
}
BENCHMARK(BM_FactBaseChurn);

void BM_VidsInspectSipInDialog(benchmark::State& state) {
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  const std::string call_id = "dlg-bench";

  // Establish the dialog: INVITE / 200 / ACK.
  const auto invite = TypicalInvite(call_id);
  net::Datagram d_invite;
  d_invite.src = kProxyA;
  d_invite.dst = kProxyB;
  d_invite.payload = invite.Serialize();
  vids.Inspect(d_invite, true);

  const auto make_ok = [](const sip::Message& request) {
    auto response = sip::Message::MakeResponse(200);
    for (const auto via : request.Headers("Via")) {
      response.AddHeader("Via", via);
    }
    response.SetFrom(*request.From());
    auto to = *request.To();
    to.SetTag("tag-bob");
    response.SetTo(to);
    response.SetCallId(std::string(*request.CallId()));
    response.SetCseq(*request.Cseq());
    response.SetBody(
        sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000})
            .Serialize(),
        "application/sdp");
    return response;
  };
  const auto make_ack = [&call_id](uint32_t cseq) {
    auto ack = sip::Message::MakeRequest(
        sip::Method::kAck, *sip::SipUri::Parse("sip:bob@b.example.com"));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bKack" + call_id;
    ack.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    ack.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    to.SetTag("tag-bob");
    ack.SetTo(to);
    ack.SetCallId(call_id);
    ack.SetCseq(sip::CSeq{cseq, sip::Method::kAck});
    return ack;
  };

  net::Datagram d_ok;
  d_ok.src = kProxyB;
  d_ok.dst = kProxyA;
  d_ok.payload = make_ok(invite).Serialize();
  vids.Inspect(d_ok, false);

  net::Datagram d_ack = d_invite;
  d_ack.payload = make_ack(1).Serialize();
  vids.Inspect(d_ack, true);

  // Steady-state cycle: re-INVITE (CSeq 2, both tags, unchanged SDP offer),
  // 200, ACK — all pre-serialized; the loop does no message construction.
  auto reinvite = TypicalInvite(call_id);
  auto to = *reinvite.To();
  to.SetTag("tag-bob");
  reinvite.SetTo(to);
  reinvite.SetCseq(sip::CSeq{2, sip::Method::kInvite});
  d_invite.payload = reinvite.Serialize();
  d_ok.payload = make_ok(reinvite).Serialize();
  d_ack.payload = make_ack(2).Serialize();

  // Warmup: settle map/string capacities, cross the INVITE-flood threshold
  // so its machine parks in the deduplicated attack self-loop, build every
  // lazily-compiled dispatch table.
  for (int i = 0; i < 600; ++i) {
    vids.Inspect(d_invite, true);
    vids.Inspect(d_ok, false);
    vids.Inspect(d_ack, true);
  }

  {
    // Scoped so the counter snapshot closes before SetItemsProcessed below
    // touches the (allocating) counters map.
    AllocCounter allocs(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(vids.Inspect(d_invite, true));
      benchmark::DoNotOptimize(vids.Inspect(d_ok, false));
      benchmark::DoNotOptimize(vids.Inspect(d_ack, true));
    }
  }
  // Three packets per iteration; report per-packet throughput too.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_VidsInspectSipInDialog);

void BM_VidsInspectSipBehavior(benchmark::State& state) {
  // Steady-state cost of Inspect() WITH the behavioral layer in the loop:
  // every iteration is an initial INVITE carrying a User-Agent header, so
  // it walks the whole FeedBehavior path — From-AOR profile probe, rate
  // window touch, destination fan-out and UA distinct-ring touches,
  // open-call slot refresh, scoring. Time is frozen and the Call-ID fixed:
  // the caller's profile blew past alert_score during warmup (one alert,
  // emitted before the counter arms), so the timed region exercises the
  // worst hot case — a fully saturated profile re-scored per packet and
  // suppressed by the cooldown. The gate: allocs_per_iter must be 0; the
  // behavioral layer adds no allocation to the steady-state inspect path.
  sim::Scheduler scheduler;
  ids::DetectionConfig config;
  // Benign fixed-destination INVITEs would otherwise park the run inside a
  // permanent INVITE-flood alarm (see BM_VidsInspectSip).
  config.invite_flood_threshold = 1 << 20;
  ids::Vids vids(scheduler, config);
  auto invite = TypicalInvite("behavior-bench");
  invite.SetHeader("User-Agent", "bench-softphone/1.0");
  net::Datagram dgram;
  dgram.src = kProxyA;
  dgram.dst = kProxyB;
  dgram.payload = invite.Serialize();

  // Warmup: group + profile creation, the one behavioral alert (rate far
  // over threshold at frozen time), every capacity settled.
  for (int i = 0; i < 600; ++i) {
    vids.Inspect(dgram, true);
  }
  if (vids.CountAlerts(ids::AlertKind::kBehavior) != 1) {
    state.SkipWithError("behavioral warmup alert missing");
    return;
  }

  {
    AllocCounter allocs(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(vids.Inspect(dgram, true));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cooldown_suppressed"] =
      static_cast<double>(vids.behavior().cooldown_suppressed());
}
BENCHMARK(BM_VidsInspectSipBehavior);

void BM_VidsInspectRtpInSession(benchmark::State& state) {
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  net::Datagram invite;
  invite.src = kProxyA;
  invite.dst = kProxyB;
  invite.payload = TypicalInvite("media-bench").Serialize();
  vids.Inspect(invite, true);

  rtp::RtpHeader header;
  header.ssrc = 7;
  net::Datagram dgram;
  dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000};
  dgram.dst = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
  dgram.payload = header.Serialize();
  // Patch sequence/timestamp bytes in place (RFC 3550 big-endian offsets):
  // the measured cost is the IDS, not datagram construction.
  uint16_t seq = 0;
  uint32_t ts = 0;
  const auto patch = [&dgram](uint16_t s, uint32_t t) {
    dgram.payload[2] = static_cast<char>(s >> 8);
    dgram.payload[3] = static_cast<char>(s & 0xFF);
    dgram.payload[4] = static_cast<char>(t >> 24);
    dgram.payload[5] = static_cast<char>((t >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((t >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(t & 0xFF);
  };
  // Warmup to steady state: container capacities settled, the RTP-flood
  // machine parked in its deduplicated attack self-loop.
  for (int i = 0; i < 600; ++i) {
    patch(++seq, ts += 80);
    vids.Inspect(dgram, true);
  }

  AllocCounter allocs(state);
  for (auto _ : state) {
    patch(++seq, ts += 80);
    benchmark::DoNotOptimize(vids.Inspect(dgram, true));
  }
}
BENCHMARK(BM_VidsInspectRtpInSession);

void RunShardedIngestBench(benchmark::State& state, ids::ShardedConfig config) {
  // End-to-end pipeline throughput of the sharded engine: router + SPSC
  // handoff + N workers inspecting in parallel. Steady-state in-session RTP
  // across pre-opened calls whose media endpoints were negotiated over SIP,
  // so packets take the owner-routed path. Wall-clock (UseRealTime) because
  // the work happens on worker threads; compare items_per_second across the
  // shard counts — and against the `cores` counter, since a 1-core host
  // serializes the workers and cannot show scaling.
  const int shards = static_cast<int>(state.range(0));
  config.shards = shards;
  config.ring_capacity = 4096;
  // Benign steady-state media at frozen simulated time would otherwise sit
  // in a permanent RTP-flood window; park those machines during warmup and
  // dedup keeps them quiet (same approach as BM_VidsInspectRtpInSession).
  ids::ShardedIds engine(config);

  constexpr int kCalls = 16;
  const sim::Time t0 = sim::Time::FromNanos(1);
  std::vector<net::Datagram> media;
  for (int i = 0; i < kCalls; ++i) {
    const net::Endpoint offer{net::IpAddress(10, 1, 0, 10),
                              static_cast<uint16_t>(20000 + 2 * i)};
    net::Datagram invite;
    invite.src = kProxyA;
    invite.dst = kProxyB;
    invite.payload =
        TypicalInvite("shard-bench-" + std::to_string(i), offer).Serialize();
    engine.Ingest(invite, true, t0);

    rtp::RtpHeader header;
    header.ssrc = 0x5A000000u + static_cast<uint32_t>(i);
    net::Datagram dgram;
    dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(30000 + 2 * i)};
    dgram.dst = offer;
    dgram.payload = header.Serialize();
    media.push_back(std::move(dgram));
  }

  std::vector<uint16_t> seq(kCalls, 0);
  std::vector<uint32_t> ts(kCalls, 0);
  const auto patch = [](net::Datagram& dgram, uint16_t s, uint32_t t) {
    dgram.payload[2] = static_cast<char>(s >> 8);
    dgram.payload[3] = static_cast<char>(s & 0xFF);
    dgram.payload[4] = static_cast<char>(t >> 24);
    dgram.payload[5] = static_cast<char>((t >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((t >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(t & 0xFF);
  };
  for (int k = 0; k < 300; ++k) {  // past the flood threshold on every call
    for (int i = 0; i < kCalls; ++i) {
      patch(media[static_cast<size_t>(i)], ++seq[static_cast<size_t>(i)],
            ts[static_cast<size_t>(i)] += 80);
      engine.Ingest(media[static_cast<size_t>(i)], true, t0);
    }
  }
  engine.Flush(t0);  // warmup fully absorbed before the timed region

  size_t next = 0;
  {
    // The counter covers every thread: worker-side allocations during the
    // timed window land in allocs_per_iter too, which is the point — the
    // whole pipeline must be allocation-free in steady state.
    AllocCounter allocs(state);
    for (auto _ : state) {
      const size_t i = next;
      next = (next + 1) % kCalls;
      patch(media[i], ++seq[i], ts[i] += 80);
      engine.Ingest(media[i], true, t0);
    }
  }
  // Ring backpressure ties the timed ingest rate to worker throughput to
  // within one ring of slack — negligible over the iteration counts the
  // harness picks. The final drain itself is outside the timed region.
  engine.Flush(t0);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["shards"] = shards;
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["ingest_stalls"] =
      static_cast<double>(engine.ingest_stalls());
}

void BM_ShardedIngestBatched(benchmark::State& state) {
  // Default configuration: up to ShardedIds::kBatchMax slots per
  // release/acquire pair on both rings and the bounded-latency partial
  // flush (DESIGN.md §12). Counted: the whole pipeline must stay
  // allocation-free in steady state. report_bench.py --scaling gates the
  // /4 row at >= 2x the /1 row.
  RunShardedIngestBench(state, ids::ShardedConfig{});
}
BENCHMARK(BM_ShardedIngestBatched)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ShardedPipelineSpans(benchmark::State& state) {
  // Cost of the pipeline span layer on the default batched engine:
  // range(1) is trace_sample_period (0 = sampling off). The /1/0 row is
  // the zero-alloc gate — with sampling off the span path must be one
  // always-false branch and no clock read, so steady-state ingest stays
  // allocation-free; the sampled rows price the MonotonicNanos() pair plus
  // three histogram records per sampled packet.
  ids::ShardedConfig config;
  config.trace_sample_period = static_cast<uint32_t>(state.range(1));
  config.watchdog_stall_ms = 0;  // isolate span cost from watchdog polls
  state.counters["trace_period"] = static_cast<double>(state.range(1));
  RunShardedIngestBench(state, config);
}
BENCHMARK(BM_ShardedPipelineSpans)
    ->Args({1, 0})
    ->Args({1, 64})
    ->Args({4, 64})
    ->UseRealTime();

void BM_HistogramRecord(benchmark::State& state) {
  // One log2-bucket histogram record — the unit cost each sampled span
  // pays three times. Values cycle across buckets so the bucket index
  // computation is not branch-predicted away.
  obs::Histogram histogram;
  static constexpr int64_t kValues[] = {80, 1200, 65000, 900000};
  benchmark::DoNotOptimize(&histogram);
  size_t i = 0;
  AllocCounter allocs(state);
  for (auto _ : state) {
    histogram.Record(kValues[i++ & 3]);
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_RingBatchPushPop(benchmark::State& state) {
  // Raw SPSC ring cost of the batched producer/consumer ops, single
  // threaded so it measures the index machinery (and the zero-alloc slot
  // reuse), not scheduler noise. One iteration = one K-slot batch pushed,
  // committed, read and popped.
  const size_t batch = static_cast<size_t>(state.range(0));
  common::SpscRing<std::string> ring(batch * 4);
  const std::string payload(160, 'r');  // one G.729-sized RTP packet
  // Warm lap: give every slot its capacity so the timed region reuses it.
  for (size_t lap = 0; lap < ring.capacity() / batch; ++lap) {
    for (size_t i = 0; i < batch; ++i) ring.BeginPushN()->assign(payload);
    ring.CommitPushN();
    ring.PopN(ring.FrontN(batch));
  }
  size_t moved = 0;
  {
    AllocCounter allocs(state);
    for (auto _ : state) {
      for (size_t i = 0; i < batch; ++i) ring.BeginPushN()->assign(payload);
      ring.CommitPushN();
      const size_t n = ring.FrontN(batch);
      for (size_t i = 0; i < n; ++i) {
        benchmark::DoNotOptimize(ring.At(i).data());
      }
      ring.PopN(n);
      moved += n;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(moved));
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_RingBatchPushPop)->Arg(1)->Arg(8)->Arg(32);

/// Runs a short in-session RTP scenario (same shape as
/// BM_VidsInspectRtpInSession) and writes the IDS metric registry snapshot
/// to `path`, so CI can assert on instrumented-run counters next to the
/// benchmark numbers.
void WriteMetricsSnapshot(const char* path) {
  sim::Scheduler scheduler;
  ids::Vids vids(scheduler);
  net::Datagram invite;
  invite.src = kProxyA;
  invite.dst = kProxyB;
  invite.payload = TypicalInvite("metrics-snapshot").Serialize();
  vids.Inspect(invite, true);

  rtp::RtpHeader header;
  header.ssrc = 7;
  net::Datagram dgram;
  dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000};
  dgram.dst = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
  dgram.payload = header.Serialize();
  uint16_t seq = 0;
  uint32_t ts = 0;
  for (int i = 0; i < 2000; ++i) {
    ++seq;
    ts += 80;
    dgram.payload[2] = static_cast<char>(seq >> 8);
    dgram.payload[3] = static_cast<char>(seq & 0xFF);
    dgram.payload[4] = static_cast<char>(ts >> 24);
    dgram.payload[5] = static_cast<char>((ts >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((ts >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(ts & 0xFF);
    vids.Inspect(dgram, true);
  }

  std::ofstream out(path);
  out << vids.metrics().ToJson();
}

/// Runs the sharded pipeline with every packet spanned (trace period 1)
/// and writes the merged cross-shard snapshot to `path`: per-shard
/// `shard.N.lat.*` latency histograms, ring high-water marks, and
/// flush-reason counters. report_bench.py --latency renders the p50/p95/p99
/// table from this file.
void WritePipelineSnapshot(const char* path) {
  ids::ShardedConfig config;
  config.shards = 4;
  config.trace_sample_period = 1;
  ids::ShardedIds engine(config);

  const sim::Time t0 = sim::Time::FromNanos(1);
  constexpr int kCalls = 8;
  std::vector<net::Datagram> media;
  for (int i = 0; i < kCalls; ++i) {
    const net::Endpoint offer{net::IpAddress(10, 1, 0, 10),
                              static_cast<uint16_t>(21000 + 2 * i)};
    net::Datagram invite;
    invite.src = kProxyA;
    invite.dst = kProxyB;
    invite.payload =
        TypicalInvite("span-snapshot-" + std::to_string(i), offer).Serialize();
    engine.Ingest(invite, true, t0);

    rtp::RtpHeader header;
    header.ssrc = 0x51000000u + static_cast<uint32_t>(i);
    net::Datagram dgram;
    dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(31000 + 2 * i)};
    dgram.dst = offer;
    dgram.payload = header.Serialize();
    media.push_back(std::move(dgram));
  }
  // In-session media at frozen simulated time deliberately crosses the
  // RTP-flood threshold: the resulting alerts exercise the ingest->alert
  // histogram alongside the per-packet spans.
  std::vector<uint16_t> seq(kCalls, 0);
  std::vector<uint32_t> ts(kCalls, 0);
  for (int k = 0; k < 500; ++k) {
    for (int i = 0; i < kCalls; ++i) {
      auto& dgram = media[static_cast<size_t>(i)];
      const uint16_t s = ++seq[static_cast<size_t>(i)];
      const uint32_t t = ts[static_cast<size_t>(i)] += 80;
      dgram.payload[2] = static_cast<char>(s >> 8);
      dgram.payload[3] = static_cast<char>(s & 0xFF);
      dgram.payload[4] = static_cast<char>(t >> 24);
      dgram.payload[5] = static_cast<char>((t >> 16) & 0xFF);
      dgram.payload[6] = static_cast<char>((t >> 8) & 0xFF);
      dgram.payload[7] = static_cast<char>(t & 0xFF);
      engine.Ingest(dgram, true, t0);
    }
  }
  engine.Flush(t0);

  std::ofstream out(path);
  out << engine.MergedMetrics().ToJson();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("VIDS_METRICS_OUT")) {
    WriteMetricsSnapshot(path);
  }
  if (const char* path = std::getenv("VIDS_PIPELINE_OUT")) {
    WritePipelineSnapshot(path);
  }
  return 0;
}
