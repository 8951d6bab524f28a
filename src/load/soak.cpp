#include "load/soak.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "attacks/toolkit.h"
#include "common/rng.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "testbed/testbed.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"
#include "vids/trace.h"

namespace vids::load {
namespace {

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kAttacker{net::IpAddress(10, 9, 0, 66), 5060};
const net::Endpoint kAttackerMedia{net::IpAddress(10, 9, 0, 66), 41000};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  return dgram;
}

net::Datagram RtpDgram(uint32_t ssrc, uint16_t seq, uint32_t ts, bool marker,
                       net::Endpoint src, net::Endpoint dst) {
  rtp::RtpHeader header;
  header.ssrc = ssrc;
  header.sequence_number = seq;
  header.timestamp = ts;
  header.marker = marker;
  header.payload_type = 18;  // G.729, the testbed codec
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id,
                        const std::string& callee_user,
                        net::Endpoint caller_media, net::Endpoint src,
                        const std::string& caller_user = "alice",
                        const std::string& user_agent = {}) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite,
      *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com"));
  sip::Via via;
  via.sent_by = src;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:" + caller_user + "@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee_user + "@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  if (!user_agent.empty()) invite.SetHeader("User-Agent", user_agent);
  invite.SetBody(sdp::MakeAudioOffer(caller_media).Serialize(),
                 "application/sdp");
  return invite;
}

sip::Message MakeResponse(const sip::Message& request, int status,
                          std::optional<net::Endpoint> answer_media) {
  auto response = sip::Message::MakeResponse(status);
  for (const auto via : request.Headers("Via")) {
    response.AddHeader("Via", via);
  }
  response.SetFrom(*request.From());
  auto to = *request.To();
  to.SetTag("tag-callee");
  response.SetTo(to);
  response.SetCallId(std::string(*request.CallId()));
  response.SetCseq(*request.Cseq());
  if (answer_media) {
    response.SetBody(sdp::MakeAudioOffer(*answer_media).Serialize(),
                     "application/sdp");
  }
  return response;
}

sip::Message MakeInDialog(sip::Method method, const std::string& call_id,
                          uint32_t cseq, net::Endpoint via_sentby,
                          const std::string& caller_user = "alice") {
  auto request = sip::Message::MakeRequest(
      method, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = via_sentby;
  via.branch = "z9hG4bK" + std::string(sip::MethodName(method)) + call_id;
  request.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:" + caller_user + "@a.example.com");
  from.SetTag("tag-" + call_id);
  request.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  to.SetTag("tag-callee");
  request.SetTo(to);
  request.SetCallId(call_id);
  request.SetCseq(sip::CSeq{cseq, method});
  return request;
}

// REGISTER for `target_user`'s account. From == To == the account AOR (no
// To tag), as a real registration; the behavior layer profiles the To AOR
// and reads the *response's* destination as the registering source.
sip::Message MakeRegister(const std::string& call_id,
                          const std::string& target_user, net::Endpoint src) {
  auto reg = sip::Message::MakeRequest(
      sip::Method::kRegister, *sip::SipUri::Parse("sip:b.example.com"));
  sip::Via via;
  via.sent_by = src;
  via.branch = "z9hG4bKreg" + call_id;
  reg.PushVia(via);
  sip::NameAddr aor;
  aor.uri = *sip::SipUri::Parse("sip:" + target_user + "@b.example.com");
  auto from = aor;
  from.SetTag("tag-" + call_id);
  reg.SetFrom(from);
  reg.SetTo(aor);
  reg.SetCallId(call_id);
  reg.SetCseq(sip::CSeq{1, sip::Method::kRegister});
  return reg;
}

SoakSample Snapshot(ids::Vids& vids, sim::Time when, uint64_t calls_started,
                    uint64_t packets) {
  SoakSample s;
  s.when = when;
  s.calls_started = calls_started;
  s.packets_inspected = packets;
  const auto& fb = vids.fact_base();
  s.memory_bytes = fb.MemoryBytes();
  s.calls = fb.call_count();
  s.keyed = fb.keyed_count();
  s.tombstones = fb.tombstone_count();
  s.media_index = fb.media_index_count();
  s.alert_sigs = vids.alert_sig_count();
  s.alerts_retained = vids.alerts().size();
  s.alerts_total = vids.metrics().GetCounter("vids.alerts").value();
  return s;
}

// Sharded-mode snapshot. Caller must have flushed the engine: shard state
// is only coherent (and data-race-free) behind the Flush barrier.
SoakSample Snapshot(ids::ShardedIds& engine, sim::Time when,
                    uint64_t calls_started, uint64_t packets) {
  SoakSample s;
  s.when = when;
  s.calls_started = calls_started;
  s.packets_inspected = packets;
  s.memory_bytes = engine.MemoryBytes();
  for (int i = 0; i < engine.shards(); ++i) {
    const auto& vids = engine.shard_vids(i);
    const auto& fb = vids.fact_base();
    s.calls += fb.call_count();
    s.keyed += fb.keyed_count();
    s.tombstones += fb.tombstone_count();
    s.media_index += fb.media_index_count();
    s.alert_sigs += vids.alert_sig_count();
  }
  // The merged "vids.alerts" counts every shard's alerts plus the
  // coordinator Vids's replayed aggregate (flood/DRDoS/behavior) ones.
  auto merged = engine.MergedMetrics();
  s.alerts_total = merged.GetCounter("vids.alerts").value();
  s.alerts_retained = engine.alerts().size();
  return s;
}

}  // namespace

// ------------------------------------------------------ plateau screening

namespace {

struct Tracked {
  const char* name;
  double slack;  // absolute headroom so tiny counts don't trip the ratio
  double (*get)(const SoakSample&);
};

constexpr Tracked kTracked[] = {
    {"memory_bytes", 128.0 * 1024,
     [](const SoakSample& s) { return static_cast<double>(s.memory_bytes); }},
    {"calls", 32.0,
     [](const SoakSample& s) { return static_cast<double>(s.calls); }},
    {"keyed", 32.0,
     [](const SoakSample& s) { return static_cast<double>(s.keyed); }},
    {"tombstones", 32.0,
     [](const SoakSample& s) { return static_cast<double>(s.tombstones); }},
    {"media_index", 32.0,
     [](const SoakSample& s) { return static_cast<double>(s.media_index); }},
    {"alert_sigs", 32.0,
     [](const SoakSample& s) { return static_cast<double>(s.alert_sigs); }},
};

}  // namespace

std::vector<PlateauFinding> CheckPlateau(const std::vector<SoakSample>& samples,
                                         size_t max_retained_alerts) {
  std::vector<PlateauFinding> findings;
  const size_t n = samples.size();
  const bool enough = n >= 8;
  for (const Tracked& tracked : kTracked) {
    PlateauFinding f;
    f.name = tracked.name;
    if (!enough) {
      f.bounded = false;  // too short to judge: refuse to pass
      findings.push_back(std::move(f));
      continue;
    }
    // Reference window: past warmup, long before the end. A leak that
    // grows for the whole run is >= 4x its own 10%-25% stretch at the
    // second-half peak, so the 2x limit catches it with margin.
    const size_t ref_lo = std::max<size_t>(1, n / 10);
    const size_t ref_hi = std::max(ref_lo + 1, n / 4);
    for (size_t i = ref_lo; i < ref_hi; ++i) {
      f.reference = std::max(f.reference, tracked.get(samples[i]));
    }
    for (size_t i = n / 2; i < n; ++i) {
      f.peak = std::max(f.peak, tracked.get(samples[i]));
    }
    f.limit = 2.0 * f.reference + tracked.slack;
    f.bounded = f.peak <= f.limit;
    findings.push_back(std::move(f));
  }
  if (max_retained_alerts != 0) {
    // The alert history is gated by its absolute cap, not the plateau
    // ratio: it legitimately accumulates until the cap halves it.
    PlateauFinding f;
    f.name = "alerts_retained";
    f.limit = static_cast<double>(max_retained_alerts);
    f.reference = f.limit;
    for (const SoakSample& s : samples) {
      f.peak = std::max(f.peak, static_cast<double>(s.alerts_retained));
    }
    f.bounded = enough && f.peak <= f.limit;
    findings.push_back(std::move(f));
  }
  return findings;
}

std::string SoakReport::Summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%10s %12s %10s %8s %8s %8s %8s %8s %10s\n", "t(s)",
                "started", "mem(KB)", "calls", "keyed", "tombs", "media",
                "sigs", "alerts");
  out += line;
  for (const SoakSample& s : samples) {
    std::snprintf(line, sizeof(line),
                  "%10.0f %12llu %10.1f %8zu %8zu %8zu %8zu %8zu %10llu\n",
                  s.when.ToSeconds(),
                  static_cast<unsigned long long>(s.calls_started),
                  static_cast<double>(s.memory_bytes) / 1024.0, s.calls,
                  s.keyed, s.tombstones, s.media_index, s.alert_sigs,
                  static_cast<unsigned long long>(s.alerts_total));
    out += line;
  }
  for (const PlateauFinding& f : findings) {
    std::snprintf(line, sizeof(line),
                  "%s %-16s reference %.0f, second-half peak %.0f "
                  "(limit %.0f)\n",
                  f.bounded ? "BOUNDED  " : "UNBOUNDED", f.name.c_str(),
                  f.reference, f.peak, f.limit);
    out += line;
  }
  return out;
}

std::string SoakReport::Csv() const {
  std::string out =
      "t_s,calls_started,packets,memory_bytes,calls,keyed,tombstones,"
      "media_index,alert_sigs,alerts_retained,alerts_total\n";
  char line[256];
  for (const SoakSample& s : samples) {
    std::snprintf(line, sizeof(line),
                  "%.3f,%llu,%llu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%llu\n",
                  s.when.ToSeconds(),
                  static_cast<unsigned long long>(s.calls_started),
                  static_cast<unsigned long long>(s.packets_inspected),
                  s.memory_bytes, s.calls, s.keyed, s.tombstones,
                  s.media_index, s.alert_sigs, s.alerts_retained,
                  static_cast<unsigned long long>(s.alerts_total));
    out += line;
  }
  return out;
}

// --------------------------------------------------------- direct driver

struct SoakDriver::Impl {
  // One benign call in flight: identity, media addressing and the RTP
  // stream positions for both directions.
  struct CallCtx {
    std::string call_id;
    std::string caller_user;
    net::Endpoint caller_media;
    net::Endpoint callee_media;
    uint32_t ssrc = 0;
    uint16_t seq_out = 0;  // caller -> callee
    uint16_t seq_in = 0;   // callee -> caller
    int ticks_left = 0;
    sim::Duration spacing;
  };

  Impl(SoakConfig cfg, sim::Scheduler& sch, ids::Vids* ids,
       ids::ShardedIds* sharded_ids)
      : config(std::move(cfg)),
        scheduler(sch),
        vids(ids),
        sharded(sharded_ids),
        rng(config.seed, "soak") {}

  void Feed(const net::Datagram& dgram, bool from_outside) {
    if (config.capture != nullptr) {
      config.capture->Append(scheduler.Now(), dgram, from_outside);
    }
    if (sharded != nullptr) {
      sharded->Ingest(dgram, from_outside, scheduler.Now());
    } else {
      vids->Inspect(dgram, from_outside);
    }
    ++packets;
  }

  void ScheduleNextArrival() {
    if (started >= config.total_calls) {
      arrivals_done = true;
      return;
    }
    const double rate = std::max(0.001, config.calls_per_second);
    sim::Duration delay =
        sim::Duration::FromSeconds(rng.NextExponential(1.0 / rate));
    if (!paused_yet &&
        static_cast<double>(started) >=
            config.pause_at_fraction *
                static_cast<double>(config.total_calls)) {
      delay += config.pause;  // mid-run silence: arrivals stop entirely
      paused_yet = true;
    }
    scheduler.ScheduleAfter(delay, [this] {
      const uint64_t index = started++;
      StartCall(index);
      if (config.attack_every != 0 &&
          index % config.attack_every == config.attack_every - 1) {
        LaunchAttackBurst(attack_bursts++, index);
      }
      ScheduleNextArrival();
    });
  }

  void StartCall(uint64_t index) {
    auto ctx = std::make_shared<CallCtx>();
    ctx->call_id = "soak-" + std::to_string(index) + "@load";
    // Unique media endpoints cycling over a space far larger than the
    // concurrency, so live calls never collide on an endpoint.
    ctx->caller_media =
        net::Endpoint{net::IpAddress(10, 1, 0, 10),
                      static_cast<uint16_t>(10000 + (index % 27000) * 2)};
    ctx->callee_media =
        net::Endpoint{net::IpAddress(10, 2, 0, 10),
                      static_cast<uint16_t>(10001 + (index % 27000) * 2)};
    ctx->ssrc = 0x50000000u + static_cast<uint32_t>(index);
    const std::string callee_user =
        "u" + std::to_string(index % std::max(1, config.callee_aors));
    // Call-center mode: rotate the caller identity so each per-caller
    // behavior profile carries only 1/caller_aors of the aggregate rate.
    ctx->caller_user =
        config.caller_aors <= 1
            ? "alice"
            : "cc" + std::to_string(index % static_cast<uint64_t>(
                                                config.caller_aors));

    const auto invite = MakeInvite(ctx->call_id, callee_user,
                                   ctx->caller_media, kProxyA,
                                   ctx->caller_user);
    Feed(SipDgram(invite, kProxyA, kProxyB), true);
    Feed(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kProxyA),
         false);
    Feed(SipDgram(MakeResponse(invite, 200, ctx->callee_media), kProxyB,
                  kProxyA),
         false);
    Feed(SipDgram(MakeInDialog(sip::Method::kAck, ctx->call_id, 1,
                               ctx->caller_media, ctx->caller_user),
                  ctx->caller_media, ctx->callee_media),
         true);

    const double hold_s = std::clamp(
        rng.NextExponential(config.mean_hold.ToSeconds()), 1.0,
        10.0 * config.mean_hold.ToSeconds());
    const sim::Duration hold = sim::Duration::FromSeconds(hold_s);
    ctx->ticks_left = std::max(2, config.rtp_packets_per_call);
    ctx->spacing = hold / ctx->ticks_left;
    scheduler.ScheduleAfter(ctx->spacing, [this, ctx] { MediaTick(ctx); });
    scheduler.ScheduleAfter(hold, [this, ctx] { Teardown(*ctx); });
  }

  void MediaTick(const std::shared_ptr<CallCtx>& ctx) {
    // One clean packet each way: same SSRC, consecutive sequence numbers,
    // +160 timestamps — benign media must never trip the spam predicates.
    const bool first = ctx->seq_out == 0;
    ++ctx->seq_out;
    ++ctx->seq_in;
    Feed(RtpDgram(ctx->ssrc, ctx->seq_out, 160u * ctx->seq_out, first,
                  ctx->caller_media, ctx->callee_media),
         true);
    Feed(RtpDgram(ctx->ssrc + 1, ctx->seq_in, 160u * ctx->seq_in, first,
                  ctx->callee_media, ctx->caller_media),
         false);
    if (--ctx->ticks_left > 0) {
      scheduler.ScheduleAfter(ctx->spacing, [this, ctx] { MediaTick(ctx); });
    }
  }

  void Teardown(const CallCtx& ctx) {
    const auto bye = MakeInDialog(sip::Method::kBye, ctx.call_id, 2,
                                  ctx.caller_media, ctx.caller_user);
    Feed(SipDgram(bye, ctx.caller_media, ctx.callee_media), true);
    const auto ok = MakeResponse(bye, 200, std::nullopt);
    Feed(SipDgram(ok, ctx.callee_media, ctx.caller_media), false);

    // Late retransmission of the final 200: inside the tombstone TTL it
    // must be dropped silently; past the TTL it re-opens deviant state
    // that only the idle sweep can reclaim.
    const double draw = rng.NextDouble();
    sim::Duration late;
    if (draw < config.post_ttl_retransmit_prob) {
      late = config.detection.tombstone_ttl + sim::Duration::Seconds(2);
    } else if (draw < config.late_retransmit_prob) {
      late = sim::Duration::Seconds(2);
    } else {
      return;
    }
    auto dgram = SipDgram(ok, ctx.callee_media, ctx.caller_media);
    scheduler.ScheduleAfter(late, [this, dgram = std::move(dgram)] {
      Feed(dgram, false);
    });
  }

  void LaunchAttackBurst(uint64_t burst, uint64_t call_index) {
    const auto& detection = config.detection;
    switch (burst % 5) {
      case 0: {  // BYE DoS against the call that just opened
        const std::string call_id =
            "soak-" + std::to_string(call_index) + "@load";
        const auto bye =
            MakeInDialog(sip::Method::kBye, call_id, 9, kAttacker);
        Feed(SipDgram(bye, kAttacker, kProxyB), true);
        Feed(SipDgram(MakeResponse(bye, 200, std::nullopt), kProxyB,
                      kAttacker),
             false);
        break;
      }
      case 1: {  // CANCEL DoS: INVITE answered by a foreign-source CANCEL
        const std::string call_id = "atk-cancel-" + std::to_string(burst);
        const auto invite = MakeInvite(
            call_id, "carol",
            net::Endpoint{net::IpAddress(10, 1, 0, 20), 22000}, kProxyA);
        Feed(SipDgram(invite, kProxyA, kProxyB), true);
        Feed(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB,
                      kProxyA),
             false);
        auto cancel = sip::Message::MakeRequest(
            sip::Method::kCancel,
            *sip::SipUri::Parse("sip:carol@b.example.com"));
        for (const auto via : invite.Headers("Via")) {
          cancel.AddHeader("Via", via);  // matches the pending transaction
        }
        cancel.SetFrom(*invite.From());
        cancel.SetTo(*invite.To());
        cancel.SetCallId(call_id);
        cancel.SetCseq(sip::CSeq{1, sip::Method::kCancel});
        Feed(SipDgram(cancel, kAttacker, kProxyB), true);
        break;
      }
      case 2: {  // INVITE flood at a rotating target AOR
        const std::string target =
            "floodee" + std::to_string(burst % 8);
        for (int k = 0; k <= detection.invite_flood_threshold + 1; ++k) {
          const std::string call_id =
              "atk-flood-" + std::to_string(burst) + "-" + std::to_string(k);
          Feed(SipDgram(MakeInvite(call_id, target,
                                   net::Endpoint{kAttacker.ip, 42000},
                                   kAttacker),
                        kAttacker, kProxyB),
               true);
        }
        break;
      }
      case 3: {  // RTP flood at a rotating victim endpoint
        const net::Endpoint victim{
            net::IpAddress(10, 2, 9, static_cast<uint8_t>(1 + burst % 8)),
            40000};
        for (int k = 0; k <= detection.rtp_flood_threshold + 10; ++k) {
          Feed(RtpDgram(0xF100Du, static_cast<uint16_t>(k), 160u * k,
                        k == 0, kAttackerMedia, victim),
               true);
        }
        break;
      }
      default: {  // DRDoS reflection: unsolicited responses at a victim
        const net::Endpoint victim{
            net::IpAddress(10, 9, static_cast<uint8_t>(1 + burst % 8), 77),
            5060};
        const auto probe = MakeInvite(
            "refl-probe", "victim",
            net::Endpoint{net::IpAddress(10, 1, 0, 30), 23000}, kProxyB);
        for (int k = 0; k <= detection.drdos_threshold + 1; ++k) {
          auto response = MakeResponse(probe, 200, std::nullopt);
          response.SetCallId("refl-" + std::to_string(burst) + "-" +
                             std::to_string(k));
          Feed(SipDgram(response, kProxyB, victim), false);
        }
        break;
      }
    }
  }

  // ---------------- behavioral-attack scenarios (DESIGN.md §16) ----------
  // Fixed simulated-time schedules, independent of the Poisson benign
  // stream, so every run (and every shard count fed the same
  // stream) sees the identical packet sequence. Burst sizes are sized to
  // cross the behavior engine's thresholds (behavior.h) with margin while
  // staying inside its fixed distinct-slot rings.
  static constexpr int kSpitCallsPerBurst = 40;       // rate 15/10s crossed
  static constexpr int kRegCrackAttemptsPerBurst = 30;  // failures 8/30s
  static constexpr int kTollFraudCallsPerBurst = 25;    // fanout 16/60s

  void ScheduleScenarios() {
    for (int b = 0; b < config.spit_bursts; ++b) {
      const auto base = sim::Duration::Seconds(2 + 45 * b);
      for (int k = 0; k < kSpitCallsPerBurst; ++k) {
        scheduler.ScheduleAfter(base + sim::Duration::Millis(150) * k,
                                [this, b, k] { LaunchSpitCall(b, k); });
      }
    }
    for (int b = 0; b < config.reg_crack_bursts; ++b) {
      const auto base = sim::Duration::Seconds(10 + 60 * b);
      for (int k = 0; k < kRegCrackAttemptsPerBurst; ++k) {
        scheduler.ScheduleAfter(base + sim::Duration::Millis(300) * k,
                                [this, b, k] { LaunchRegCrackAttempt(b, k); });
      }
    }
    for (int b = 0; b < config.toll_fraud_bursts; ++b) {
      const auto base = sim::Duration::Seconds(20 + 120 * b);
      for (int k = 0; k < kTollFraudCallsPerBurst; ++k) {
        scheduler.ScheduleAfter(base + sim::Duration::Seconds(2) * k,
                                [this, b, k] { LaunchTollFraudCall(b, k); });
      }
    }
  }

  /// One full clean dialog (INVITE/180/200/ACK now, BYE/200 after `hold`)
  /// from a scenario caller. Protocol-legal by construction.
  void ScenarioCall(const std::string& caller, const std::string& callee,
                    const std::string& call_id, const std::string& ua,
                    net::Endpoint caller_media, net::Endpoint callee_media,
                    sim::Duration hold) {
    const auto invite =
        MakeInvite(call_id, callee, caller_media, kAttacker, caller, ua);
    Feed(SipDgram(invite, kAttacker, kProxyB), true);
    Feed(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kAttacker),
         false);
    Feed(SipDgram(MakeResponse(invite, 200, callee_media), kProxyB, kAttacker),
         false);
    Feed(SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, caller_media,
                               caller),
                  caller_media, callee_media),
         true);
    scheduler.ScheduleAfter(
        hold, [this, call_id, caller, caller_media, callee_media] {
          const auto bye = MakeInDialog(sip::Method::kBye, call_id, 2,
                                        caller_media, caller);
          Feed(SipDgram(bye, caller_media, callee_media), true);
          Feed(SipDgram(MakeResponse(bye, 200, std::nullopt), callee_media,
                        caller_media),
               false);
        });
  }

  // SPIT: one spitter blasting short calls at distinct victims, 150 ms
  // apart — the 10 s call-rate window fills past its threshold within
  // ~2.6 s and the 1 s holds feed the short-call counter as well.
  void LaunchSpitCall(int b, int k) {
    ScenarioCall(
        "spitter" + std::to_string(b), "spit-victim-" + std::to_string(k),
        "spit-" + std::to_string(b) + "-" + std::to_string(k) + "@load",
        "spitware/1.0",
        net::Endpoint{kAttacker.ip, static_cast<uint16_t>(43000 + 2 * k)},
        net::Endpoint{net::IpAddress(10, 2, 0, 10),
                      static_cast<uint16_t>(43001 + 2 * k)},
        sim::Duration::Seconds(1));
  }

  // Toll fraud, low and slow: 2 s between calls keeps every short-window
  // rate far under threshold; only the 60 s destination fan-out window
  // accumulates the distinct premium AORs.
  void LaunchTollFraudCall(int b, int k) {
    ScenarioCall(
        "fraudster" + std::to_string(b), "premium-" + std::to_string(k),
        "fraud-" + std::to_string(b) + "-" + std::to_string(k) + "@load",
        "fraudster-phone/2.1",
        net::Endpoint{kAttacker.ip, static_cast<uint16_t>(45000 + 2 * k)},
        net::Endpoint{net::IpAddress(10, 2, 0, 10),
                      static_cast<uint16_t>(45001 + 2 * k)},
        sim::Duration::Seconds(5));
  }

  // Distributed registration cracking: every attempt is a clean REGISTER /
  // 401 exchange in its own dialog-less transaction, each from a different
  // source address against the same account.
  void LaunchRegCrackAttempt(int b, int k) {
    const std::string call_id =
        "crack-" + std::to_string(b) + "-" + std::to_string(k) + "@load";
    const net::Endpoint source{
        net::IpAddress(10, 9, static_cast<uint8_t>(100 + b % 100),
                       static_cast<uint8_t>(1 + k)),
        5060};
    const auto reg =
        MakeRegister(call_id, "reg-victim-" + std::to_string(b), source);
    Feed(SipDgram(reg, source, kProxyB), true);
    Feed(SipDgram(MakeResponse(reg, 401, std::nullopt), kProxyB, source),
         false);
  }

  size_t TrackedState() const {
    if (sharded != nullptr) return sharded->TrackedState();
    const auto& fb = vids->fact_base();
    return fb.call_count() + fb.keyed_count() + fb.tombstone_count() +
           fb.media_index_count();
  }

  void TakeSample() {
    if (sharded != nullptr) {
      // Barrier first: shard state may only be read once every in-flight
      // packet is processed and the shard clocks have caught up to now.
      sharded->Flush(scheduler.Now());
      samples.push_back(Snapshot(*sharded, scheduler.Now(), started, packets));
    } else {
      samples.push_back(Snapshot(*vids, scheduler.Now(), started, packets));
    }
  }

  void ArmSampler() {
    scheduler.ScheduleAfter(config.sample_every, [this] {
      TakeSample();
      // Keep sampling while traffic or state remains; once both are gone
      // the scheduler drains and Run() takes the final post-drain sample.
      if (!arrivals_done || TrackedState() > 0) ArmSampler();
    });
  }

  SoakConfig config;
  sim::Scheduler& scheduler;
  ids::Vids* vids;
  ids::ShardedIds* sharded;
  common::Stream rng;
  uint64_t started = 0;
  uint64_t packets = 0;
  uint64_t attack_bursts = 0;
  bool paused_yet = false;
  bool arrivals_done = false;
  std::vector<SoakSample> samples;
};

SoakDriver::SoakDriver(SoakConfig config) {
  if (config.shards > 0) {
    ids::ShardedConfig sharded;
    sharded.shards = config.shards;
    sharded.detection = config.detection;
    sharded.max_retained_alerts = config.max_retained_alerts;
    sharded.trace_sample_period = config.trace_sample_period;
    sharded_ = std::make_unique<ids::ShardedIds>(sharded);
  } else {
    vids_ = std::make_unique<ids::Vids>(scheduler_, config.detection);
    vids_->set_max_retained_alerts(config.max_retained_alerts);
  }
  impl_ = std::make_unique<Impl>(std::move(config), scheduler_, vids_.get(),
                                 sharded_.get());
}

SoakDriver::~SoakDriver() = default;

SoakReport SoakDriver::Run() {
  impl_->TakeSample();  // t=0 baseline
  impl_->ScheduleNextArrival();
  impl_->ScheduleScenarios();
  impl_->ArmSampler();
  const auto wall_start = std::chrono::steady_clock::now();
  scheduler_.Run();     // drains arrivals, pause, teardowns and reclamation
  if (sharded_) sharded_->Flush(scheduler_.Now());  // drain the pipeline too
  const auto wall_end = std::chrono::steady_clock::now();
  impl_->TakeSample();  // post-drain
  SoakReport report;
  report.samples = impl_->samples;
  report.calls_started = impl_->started;
  report.packets_inspected = impl_->packets;
  report.alerts_total = report.samples.back().alerts_total;
  report.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       wall_end - wall_start)
                       .count();
  if (report.wall_ns > 0) {
    report.packets_per_second = static_cast<double>(report.packets_inspected) *
                                1e9 / static_cast<double>(report.wall_ns);
  }
  report.findings =
      CheckPlateau(report.samples, impl_->config.max_retained_alerts);
  for (const PlateauFinding& f : report.findings) {
    report.bounded = report.bounded && f.bounded;
  }
  if (sharded_) sharded_->Stop();
  return report;
}

// ------------------------------------------------------------- tap soak

SoakReport RunTapSoak(const SoakConfig& config, sim::Duration duration) {
  testbed::TestbedConfig tb;
  tb.seed = config.seed;
  tb.detection = config.detection;
  testbed::Testbed bed(tb);
  bed.vids()->set_max_retained_alerts(config.max_retained_alerts);

  testbed::WorkloadConfig workload;
  workload.mean_intercall = sim::Duration::FromSeconds(
      tb.uas_per_network / std::max(0.1, config.calls_per_second));
  workload.mean_duration = config.mean_hold;
  bed.StartWorkload(workload);

  std::vector<SoakSample> samples;
  auto& scheduler = bed.scheduler();
  auto sample = [&] {
    samples.push_back(Snapshot(*bed.vids(), scheduler.Now(),
                               bed.eavesdropper().calls_seen(),
                               bed.vids()->stats().packets));
  };
  sample();
  const int64_t sample_count =
      duration.nanos() / std::max<int64_t>(1, config.sample_every.nanos());
  for (int64_t k = 1; k <= sample_count; ++k) {
    scheduler.ScheduleAt(scheduler.Now() + config.sample_every * k,
                         [&sample] { sample(); });
  }

  // Periodic toolkit attacks through the real tap.
  const sim::Duration attack_period = sim::Duration::Seconds(15);
  for (int64_t k = 1; k * attack_period.nanos() < duration.nanos(); ++k) {
    scheduler.ScheduleAt(
        scheduler.Now() + attack_period * k, [&bed, &config, k] {
          auto& toolkit = bed.attacker();
          const auto& detection = config.detection;
          switch (k % 3) {
            case 0:
              toolkit.LaunchInviteFlood(
                  *sip::SipUri::Parse("sip:soakee@b.example.com"),
                  bed.proxy_b_endpoint(),
                  detection.invite_flood_threshold + 2,
                  sim::Duration::Millis(50));
              break;
            case 1:
              toolkit.LaunchDrdosReflection(
                  net::Endpoint{net::IpAddress(10, 9, 3, 77), 5060},
                  bed.proxy_b_endpoint(), detection.drdos_threshold + 2,
                  sim::Duration::Millis(100));
              break;
            default:
              if (auto call = bed.eavesdropper().LatestAnswered()) {
                toolkit.SendSpoofedBye(*call, /*spoof_ip=*/true);
              }
              break;
          }
        });
  }

  bed.RunUntil(scheduler.Now() + duration);

  SoakReport report;
  report.samples = std::move(samples);
  report.calls_started = bed.eavesdropper().calls_seen();
  report.packets_inspected = bed.vids()->stats().packets;
  report.alerts_total =
      bed.vids()->metrics().GetCounter("vids.alerts").value();
  report.findings =
      CheckPlateau(report.samples, config.max_retained_alerts);
  for (const PlateauFinding& f : report.findings) {
    report.bounded = report.bounded && f.bounded;
  }
  return report;
}

}  // namespace vids::load
