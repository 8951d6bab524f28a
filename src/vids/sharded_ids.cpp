#include "vids/sharded_ids.h"

#include <algorithm>
#include <chrono>

#include "common/backoff.h"
#include "common/strings.h"
#include "sdp/sdp.h"
#include "vids/classifier.h"

namespace vids::ids {

namespace {

// Endpoint key → shard. PackedKey is structured (ip << 16 | port), so mix
// it before taking the residue.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Field-wise copy that reuses the destination's string capacities — the
// ring-slot analog of the classifier's AssignStr.
void AssignAlert(Alert& dst, const Alert& src) {
  dst.when = src.when;
  dst.kind = src.kind;
  dst.classification.assign(src.classification);
  dst.machine.assign(src.machine);
  dst.group.assign(src.group);
  dst.state.assign(src.state);
  dst.detail.assign(src.detail);
  dst.trigger.assign(src.trigger);
  dst.provenance.resize(src.provenance.size());
  for (size_t i = 0; i < src.provenance.size(); ++i) {
    dst.provenance[i].assign(src.provenance[i]);
  }
}

}  // namespace

// ------------------------------------------------------------ construction

ShardedIds::ShardedIds(ShardedConfig config)
    : config_(config),
      // The owner horizon's argument: DESIGN.md §11, "Caveats".
      owners_(config_.detection.call_idle_timeout +
                  config_.detection.keyed_idle_timeout,
              config_.detection.sweep_interval),
      coordinator_(coord_scheduler_, config_.detection),
      m_stalls_(&coord_metrics_.GetCounter("sharded.ingest_stalls")),
      m_sip_routed_(&coord_metrics_.GetCounter("sharded.sip_routed")),
      m_owner_routed_(
          &coord_metrics_.GetCounter("sharded.endpoint_owner_routed")),
      m_hash_routed_(
          &coord_metrics_.GetCounter("sharded.endpoint_hash_routed")),
      m_early_retracts_(
          &coord_metrics_.GetCounter("sharded.early_media_retracts")),
      m_retracts_(&coord_metrics_.GetCounter("sharded.ownership_transfers")),
      m_agg_events_(&coord_metrics_.GetCounter("sharded.agg_events")),
      m_flushes_(&coord_metrics_.GetCounter("sharded.flushes")),
      m_watchdog_stalls_(
          &coord_metrics_.GetCounter("sharded.watchdog_stalls")),
      m_flush_full_(&coord_metrics_.GetCounter("pipeline.flush.full")),
      m_flush_deadline_(
          &coord_metrics_.GetCounter("pipeline.flush.deadline")),
      m_flush_barrier_(&coord_metrics_.GetCounter("pipeline.flush.barrier")),
      m_batch_committed_(
          &coord_metrics_.GetHistogram("pipeline.batch.committed")) {
  config_.shards = std::max(1, config_.shards);
  const int n = config_.shards;
  if (config_.trace_sample_period > 0) {
    uint32_t period = 1;
    while (period < config_.trace_sample_period) period <<= 1;
    trace_on_ = true;
    trace_mask_ = period - 1;
  }
  // The coordinator Vids's alerts (flood, DRDoS, behavior) enter the
  // retained history through the same canonical insert as shard alerts.
  // It keeps only a short tail itself, like the shards.
  coordinator_.set_max_retained_alerts(4);
  coordinator_.set_alert_callback([this](const Alert& alert) {
    EmitAlert(alert);
  });
  watchdog_threshold_ns_ = config_.watchdog_stall_ms * 1'000'000;
  // Poll well inside the deadline (threshold/8, floor 1 ms) so an episode
  // accrues several consecutive checks before it can alert — the
  // continuity guard in WatchdogCheck() needs at least two.
  watchdog_poll_ns_ =
      std::max<int64_t>(watchdog_threshold_ns_ / 8, 1'000'000);
  health_.resize(static_cast<size_t>(n));
  pending_.resize(static_cast<size_t>(n));
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
    shard->index = i;
    shard->scheduler = std::make_unique<sim::Scheduler>();
    shard->vids = std::make_unique<Vids>(*shard->scheduler, config_.detection);
    // The coordinator keeps the merged history; the shard only needs enough
    // retained tail for its own internal bookkeeping.
    shard->vids->set_max_retained_alerts(4);
    // Resolve the worker's pipeline metric slots now, before its thread
    // starts — from then on a Record() is a plain array increment into the
    // worker-private registry (no cross-shard atomics, no lookups).
    shard->lat_ingest_to_dequeue =
        &shard->pipeline.GetHistogram("lat.ingest_to_dequeue");
    shard->lat_inspect = &shard->pipeline.GetHistogram("lat.inspect");
    shard->lat_e2e = &shard->pipeline.GetHistogram("lat.e2e");
    shard->lat_ingest_to_alert =
        &shard->pipeline.GetHistogram("lat.ingest_to_alert");
    shard->batch_consumed = &shard->pipeline.GetHistogram("batch.consumed");
    Shard* sp = shard.get();
    shard->vids->set_alert_callback([this, sp](const Alert& alert) {
      // A sampled packet that alerted: the open span's enqueue time is
      // still posted, so the emit stage of the trail gets its latency.
      if (sp->span_open_enqueue_ns != 0) {
        sp->lat_ingest_to_alert->Record(obs::MonotonicNanos() -
                                        sp->span_open_enqueue_ns);
      }
      PushUp(*sp, [&](UpMsg& up) {
        up.kind = UpMsg::Kind::kAlert;
        AssignAlert(up.alert, alert);
      });
    });
    // Always hook the aggregate feeds — even with one shard — so flood,
    // DRDoS and behavior detection take the identical (replayed) code path
    // for every shard count. Equivalence across N is then true by
    // construction. The event rides the open up batch, like alerts.
    shard->vids->set_aggregate_hook(
        [this, sp](const Vids::AggregateEvent& event) {
          PushUp(*sp, [&](UpMsg& up) {
            up.kind = UpMsg::Kind::kAgg;
            up.agg.Assign(sp->scheduler->Now().nanos(), event);
          });
        });
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* sp = shard.get();
    sp->thread = std::thread([this, sp] { WorkerLoop(*sp); });
  }
}

ShardedIds::~ShardedIds() { Stop(); }

void ShardedIds::AggEvent::Assign(int64_t when,
                                  const Vids::AggregateEvent& event) {
  when_ns = when;
  kind = event.kind;
  key.assign(event.key);
  src_ip = event.src_ip;
  dst_ip = event.dst_ip;
  peer.assign(event.peer);
  ua.assign(event.ua);
  aux = event.aux;
}

// ------------------------------------------------------------- worker side

template <typename Fill>
void ShardedIds::PushUp(Shard& shard, Fill&& fill) {
  UpMsg* slot = shard.up.BeginPushN();
  if (slot == nullptr) {
    // Publish whatever the open batch holds — the coordinator can only
    // free slots it can see — then wait for room. The coordinator drains
    // up-rings whenever it waits on a full down ring and while it waits
    // in Flush()/Stop(), so this cannot deadlock against a blocked
    // coordinator. It can still be a long wait if the driver thread goes
    // quiet between Ingest/Pump calls — back off to a short sleep instead
    // of spinning.
    shard.up.CommitPushN();
    common::SpinBackoff backoff;
    do {
      ++shard.up_stalls;
      backoff.Pause();
      slot = shard.up.BeginPushN();
    } while (slot == nullptr);
  }
  fill(*slot);
  if (const auto depth = static_cast<uint64_t>(shard.up.SizeFromProducer());
      depth > shard.up_hwm) {
    shard.up_hwm = depth;
  }
  // No commit here: WorkerLoop publishes the whole batch of upstream
  // messages with one release store at batch end.
}

void ShardedIds::ProcessPacket(Shard& shard, const ShardMsg& msg) {
  // Sampled span: note the dequeue time and post the enqueue time where
  // the alert callback can see it. Unsampled packets (and the
  // sampling-off configuration) take one never-true branch.
  const int64_t span_t0 = msg.span_enqueue_ns;
  int64_t span_dequeue = 0;
  if (span_t0 != 0) {
    span_dequeue = obs::MonotonicNanos();
    shard.span_open_enqueue_ns = span_t0;
  }
  // Advance this shard's private clock so detection timers (flood
  // windows, RTCP grace, sweeps) fire exactly as in the single engine:
  // all events <= `when` run before the packet is inspected, matching
  // the scheduler's timer-before-same-time-packet order.
  AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
  // Inspected in place: the slot stays the worker's until PopN retires it.
  shard.vids->Inspect(msg.dgram, msg.from_outside);
  if (span_t0 != 0) {
    const int64_t span_done = obs::MonotonicNanos();
    shard.lat_ingest_to_dequeue->Record(span_dequeue - span_t0);
    shard.lat_inspect->Record(span_done - span_dequeue);
    shard.lat_e2e->Record(span_done - span_t0);
    shard.span_open_enqueue_ns = 0;
  }
}

void ShardedIds::WorkerLoop(Shard& shard) {
  common::SpinBackoff backoff;
  // Heartbeats only exist for the watchdog; the disabled configuration
  // never reads the wall clock here.
  const bool heartbeat = watchdog_threshold_ns_ > 0;
  int64_t watermark = 0;
  bool stopping = false;
  while (!stopping) {
    const size_t avail = shard.down.FrontN(kBatchMax);
    if (avail == 0) {
      backoff.Pause();
      continue;
    }
    // The ring delivers packets, retracts and control messages in push
    // order, so a barrier is honored only after everything ingested
    // before it.
    size_t consumed = 0;
    while (consumed < avail && !stopping) {
      ShardMsg& msg = shard.down.At(consumed);
      switch (msg.kind) {
        case ShardMsg::Kind::kPacket:
          ProcessPacket(shard, msg);
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kRetractMedia:
          AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
          // This shard lost ownership of the endpoint: drop both the media
          // index binding and the per-endpoint keyed counters, so exactly
          // one shard counts the stream from the claim onward. Retracting
          // an endpoint this shard never bound is a no-op.
          shard.vids->fact_base().RetractMedia(msg.endpoint);
          shard.vids->fact_base().DropMediaKeyedGroup(msg.endpoint);
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kFlush:
          AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
          PushUp(shard, [&](UpMsg& up) {
            up.kind = UpMsg::Kind::kFlushAck;
            up.token = msg.token;
          });
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kStop:
          stopping = true;
          break;
        case ShardMsg::Kind::kWedge:
          // Deliberate stall (tests): sleep before retiring the message.
          // The ring stays non-empty and the heartbeat store below is not
          // reached — exactly the state the watchdog must detect.
          while (shard.wedged.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          break;
      }
      ++consumed;
    }

    // Worker-owned plain metric fields must be written before the commit
    // below: the coordinator reads `shard.pipeline` after acquiring the
    // flush ack published by this very batch.
    shard.batch_consumed->Record(static_cast<int64_t>(consumed));
    // One release store publishes every upstream message of this round
    // (alerts, aggregate events, acks) ...
    shard.up.CommitPushN();
    // ... then the frontier: the events it vouches for are already
    // committed above, so an acquire read that observes the new frontier
    // also observes them in the ring (DESIGN.md §11).
    shard.agg_complete_ns.store(watermark, std::memory_order_release);
    // Retire the batch only now: a coordinator that sees this shard's down
    // ring empty may count it complete through the last ingest, so every
    // event of the batch must already be committed above.
    shard.down.PopN(consumed);
    // Heartbeat last: it vouches for the whole retired round. A worker
    // that wedges or blocks mid-batch never reaches this store.
    if (heartbeat) {
      shard.last_progress_ns.store(obs::MonotonicNanos(),
                                   std::memory_order_release);
    }
    backoff.Reset();
  }
  // After this store no further up-messages are pushed; Stop() drains
  // until every worker has raised it, then joins.
  shard.done.store(true, std::memory_order_release);
}

void ShardedIds::AdvanceShardClock(Shard& shard, sim::Time when) {
  sim::Scheduler& scheduler = *shard.scheduler;
  if (when <= scheduler.Now()) return;
  if (watchdog_threshold_ns_ == 0) {
    scheduler.RunUntil(when);
    return;
  }
  // Catch-up slicing. A capture gap (idle tap, faster-than-real-time
  // pcap/trace replay) can put hours of simulated time between two ring
  // messages, and every sweep/timer inside the gap runs here — mid-batch,
  // before the post-batch heartbeat store is reached. One monolithic
  // RunUntil would freeze the heartbeat for the whole catch-up and let the
  // watchdog mis-score genuine progress as a wedged worker. A slice of one
  // sweep interval runs at most one sweep plus the timers due with it, so a
  // heartbeat follows every sweep; the slices run the events of one
  // RunUntil(when), in the same order.
  const sim::Duration slice = config_.detection.sweep_interval;
  while (when - scheduler.Now() > slice) {
    scheduler.RunUntil(scheduler.Now() + slice);
    shard.last_progress_ns.store(obs::MonotonicNanos(),
                                 std::memory_order_release);
  }
  scheduler.RunUntil(when);
}

// ------------------------------------------------------ coordinator: routing

int ShardedIds::ShardOfCallId(std::string_view call_id) const {
  // Call-IDs are adversarial input, but the partition only needs balance,
  // not collision resistance — a skewed shard is a throughput problem,
  // never a correctness one.
  return static_cast<int>(common::Fnv1a64(call_id) % shards_.size());
}

int ShardedIds::HashShardOfEndpoint(uint64_t packed_key) const {
  return static_cast<int>(SplitMix64(packed_key) % shards_.size());
}

int ShardedIds::RouteEndpoint(const net::Endpoint& endpoint, int64_t when_ns) {
  const uint64_t key = endpoint.PackedKey();
  const int owner = owners_.Lookup(key, when_ns);
  if (owner >= 0) {
    m_owner_routed_->Inc();
    return owner;
  }
  m_hash_routed_->Inc();
  return HashShardOfEndpoint(key);
}

void ShardedIds::SnoopSdp(std::string_view body, int shard, int64_t when_ns) {
  // The router claims exactly the endpoint the shard-side classifier
  // exports (sdp::ProbeAudio: the first audio section, where a media-level
  // c= overrides the session-level one), so the call's media reaches the
  // shard that holds the call.
  const auto probe = sdp::ProbeAudio(body);
  if (!probe || !probe->has_endpoint) return;
  const net::Endpoint endpoint = probe->endpoint;
  const uint64_t key = endpoint.PackedKey();
  // The retract rides the losing shard's ring at this packet's time, so it
  // lands exactly where the claim sits in the stream.
  const MediaOwnerMap::Retract retract =
      owners_.Claim(key, shard, when_ns, HashShardOfEndpoint(key));
  if (retract.shard >= 0) {
    (retract.early ? m_early_retracts_ : m_retracts_)->Inc();
    PushDown(retract.shard, [&](ShardMsg& msg) {
      msg.kind = ShardMsg::Kind::kRetractMedia;
      msg.when_ns = when_ns;
      msg.endpoint = endpoint;
    });
  }
}

template <typename Fill>
void ShardedIds::PushDown(int shard_index, Fill&& fill) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  ShardMsg* slot = shard.down.BeginPushN();
  if (slot == nullptr) {
    // Backpressure, not loss. Publish every open batch (a worker can only
    // drain what it can see) and keep draining the up-rings while waiting
    // so a worker blocked pushing alerts upstream can make progress — this
    // pair of rules is what makes the ring cycle deadlock-free.
    CommitAllDown(m_flush_full_);
    do {
      ++shard.down_stalls;
      m_stalls_->Inc();
      DrainUp();
      std::this_thread::yield();
      slot = shard.down.BeginPushN();
    } while (slot == nullptr);
  }
  const size_t open = shard.down.open_push();
  if (open == 1) ++open_batches_;
  fill(*slot);
  if (const auto depth = static_cast<uint64_t>(shard.down.SizeFromProducer());
      depth > shard.down_hwm) {
    shard.down_hwm = depth;
  }
  if (open >= kBatchMax) CommitDown(shard, m_flush_full_);
}

void ShardedIds::CommitDown(Shard& shard, obs::Counter* reason) {
  const size_t open = shard.down.open_push();
  if (open == 0) return;
  m_batch_committed_->Record(static_cast<int64_t>(open));
  reason->Inc();
  shard.down.CommitPushN();
  --open_batches_;
}

void ShardedIds::CommitAllDown(obs::Counter* reason) {
  for (auto& shard : shards_) CommitDown(*shard, reason);
  deadline_armed_ = false;
}

void ShardedIds::DeadlineCheck() {
  // Bounded-latency flush: a partial batch is published once it has been
  // open for kBatchFlushMicros of wall time.
  if (open_batches_ == 0) {
    deadline_armed_ = false;
    return;
  }
  if (!deadline_armed_) {
    deadline_armed_ = true;
    deadline_since_ns_ = obs::MonotonicNanos();
    return;
  }
  if (obs::MonotonicNanos() - deadline_since_ns_ >= kBatchFlushMicros * 1000) {
    CommitAllDown(m_flush_deadline_);
  }
}

void ShardedIds::Ingest(const net::Datagram& dgram, bool from_outside,
                        sim::Time when) {
  if (workers_joined_) return;  // stopped engines drop quietly
  const int64_t when_ns = when.nanos();
  last_ingest_ns_ = std::max(last_ingest_ns_, when_ns);
  // Frees expired owner entries; routing already treats them as absent.
  if (when_ns >= next_owner_drain_ns_) {
    owners_.Drain(when);
    next_owner_drain_ns_ = when_ns + config_.detection.sweep_interval.nanos();
  }

  // Route on the classifier's own decision (DecideProto), so the router
  // and the shard-side classifier agree on what a packet is. SIP goes by
  // its Call-ID; RTCP goes with the RTP of its media endpoint; RTP and
  // unknown bytes go by their destination endpoint.
  int target;
  const PacketProto proto = DecideProto(dgram.payload, lazy_);
  if (proto == PacketProto::kSip) {
    const auto call_id = lazy_.CallId();
    target = ShardOfCallId(call_id.value_or(std::string_view()));
    m_sip_routed_->Inc();
    if (call_id.has_value() && !lazy_.body().empty()) {
      SnoopSdp(lazy_.body(), target, when_ns);
    }
  } else {
    const auto media = proto == PacketProto::kRtcp
                           ? RtcpMediaEndpoint(dgram.dst)
                           : std::nullopt;
    target = RouteEndpoint(media.value_or(dgram.dst), when_ns);
  }

  // Span sampling: one in trace_sample_period packets gets its enqueue
  // wall time stamped into the slot; the worker closes the span. With
  // sampling off this is a single always-false branch — no clock read.
  int64_t span_ns = 0;
  if (trace_on_ && ((++trace_tick_ & trace_mask_) == 0)) {
    span_ns = obs::MonotonicNanos();
  }

  PushDown(target, [&](ShardMsg& msg) {
    msg.kind = ShardMsg::Kind::kPacket;
    msg.when_ns = when_ns;
    msg.span_enqueue_ns = span_ns;  // always assigned: slots are reused
    msg.from_outside = from_outside;
    msg.dgram = dgram;  // the payload string reuses the slot's capacity
  });

  DeadlineCheck();
  // Opportunistic upstream drain so alerts surface and the aggregate
  // replay keeps pace without explicit Pump() calls.
  if ((++ingest_count_ & 31U) == 0) DrainUp();
}

// -------------------------------------------------- coordinator: upstream

void ShardedIds::Pump() {
  CommitAllDown(m_flush_barrier_);
  DrainUp();
}

void ShardedIds::WatchdogCheck() {
  if (watchdog_threshold_ns_ == 0 || workers_joined_) return;
  const int64_t now = obs::MonotonicNanos();
  if (now - last_watchdog_check_ns_ < watchdog_poll_ns_) return;
  // Episode continuity: an open stall episode only counts toward the
  // deadline while the coordinator itself keeps checking. If *we* went
  // quiet (driver paused between Ingest/Pump calls — a worker blocked in
  // PushUp with a frozen heartbeat is then OUR doing, not a stall), the
  // gap shows up here and every episode re-anchors instead of alerting.
  const bool continuous =
      last_watchdog_check_ns_ != 0 &&
      now - last_watchdog_check_ns_ <= watchdog_threshold_ns_ / 2;
  last_watchdog_check_ns_ = now;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    ShardHealth& h = health_[i];
    const size_t depth = shard.down.SizeApprox();
    const int64_t hb = shard.last_progress_ns.load(std::memory_order_acquire);
    if (depth == 0) {
      // Nothing pending — an idle worker is healthy however old its
      // heartbeat is (idle-then-burst must not alert).
      h.hb_seen = hb;
      h.pending_since_ns = 0;
      h.alerted = false;
      continue;
    }
    if (!continuous || h.pending_since_ns == 0 || hb != h.hb_seen) {
      // Progress since last check (or no episode yet): anchor a fresh
      // episode at the first continuously-observed no-progress instant.
      // A worker sweeping a replayed capture gap stores a heartbeat per
      // catch-up slice, so it re-anchors here too.
      h.hb_seen = hb;
      h.pending_since_ns = now;
      h.alerted = false;
      continue;
    }
    if (!h.alerted && now - h.pending_since_ns >= watchdog_threshold_ns_) {
      // Pending work, no progress, continuously observed for a full
      // deadline: stalled. One alert per episode.
      h.alerted = true;
      m_watchdog_stalls_->Inc();
      Alert alert;
      alert.when = sim::Time::FromNanos(last_ingest_ns_);
      alert.kind = AlertKind::kEngineHealth;
      alert.classification = std::string(kEngineWorkerStall);
      alert.machine = "watchdog";
      alert.group = "shard|" + std::to_string(i);
      alert.state = "stalled";
      alert.detail = "ring_depth=" + std::to_string(depth) + " stalled_ms=" +
                     std::to_string((now - h.pending_since_ns) / 1'000'000);
      alert.trigger =
          "watchdog: shard ring non-empty with no worker progress past the "
          "stall deadline";
      EmitAlert(std::move(alert));
    }
  }
}

void ShardedIds::DrainUp() {
  WatchdogCheck();
  // Snapshot the replay frontier BEFORE draining. A shard commits every
  // aggregate event it vouches for (release through the ring) before it
  // publishes agg_complete_ns (release), so an acquire load of
  // agg_complete_ns >= T guarantees those events are already in the ring
  // and land in pending_ below. Loading the frontier after the drain
  // instead would let an event committed mid-drain sit at-or-before a
  // fresher frontier while missing from pending_ — and a later-timestamped
  // event from another shard would replay ahead of it, out of order.
  // A caught-up shard (nothing open or unretired in its down ring) counts
  // as complete through the last ingest: it retires a batch only after
  // committing its events, and its next event comes from a packet not yet
  // ingested, so it can only tie that frontier. An idle shard thus never
  // holds back the others' aggregate alerts.
  int64_t frontier = INT64_MAX;
  for (const auto& shard : shards_) {
    int64_t complete = shard->agg_complete_ns.load(std::memory_order_acquire);
    if (shard->down.open_push() == 0 && shard->down.SizeApprox() == 0) {
      complete = std::max(complete, last_ingest_ns_);
    }
    frontier = std::min(frontier, complete);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    for (;;) {
      const size_t n = shard.up.FrontN(kBatchMax);
      if (n == 0) break;
      for (size_t j = 0; j < n; ++j) {
        UpMsg& msg = shard.up.At(j);
        switch (msg.kind) {
          case UpMsg::Kind::kAlert:
            EmitAlert(msg.alert);  // copies; the slot keeps its buffers
            break;
          case UpMsg::Kind::kAgg:
            m_agg_events_->Inc();
            pending_[i].push_back(msg.agg);
            break;
          case UpMsg::Kind::kFlushAck:
            if (msg.token == flush_token_) ++flush_acks_;
            break;
        }
      }
      shard.up.PopN(n);
    }
  }
  ReplayAggregates(frontier);
}

void ShardedIds::ReplayAggregates(int64_t frontier) {
  // Safe-replay frontier (snapshotted by the caller before its drain):
  // every shard guarantees all its aggregate events at or before it are
  // already in pending_. Events beyond the frontier wait — a slow shard may
  // yet emit an earlier one. (An event a shard commits after the snapshot
  // can tie the frontier exactly, never undercut it: per-ring times are
  // non-decreasing and a shard's next batch starts at or after its
  // published watermark; the window counters are order-insensitive within
  // one instant, so a same-instant straggler replayed in a later batch
  // lands on identical state.)
  // K-way merge by event time. Ties across shards are replayed in shard
  // order; the window counters are order-insensitive within one instant
  // (counts and alert times depend only on the multiset of event times).
  for (;;) {
    int best = -1;
    int64_t best_t = INT64_MAX;
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].empty()) continue;
      const int64_t t = pending_[i].front().when_ns;
      if (t <= frontier && t < best_t) {
        best_t = t;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    std::deque<AggEvent>& queue = pending_[static_cast<size_t>(best)];
    // The coordinator Vids runs the event at its shard time, after every
    // coordinator timer due at or before it (window expiry, sweeps) — the
    // plain engine's timer-before-same-time-packet order.
    AdvanceCoordinator(best_t);
    coordinator_.FeedAggregate(queue.front().View());
    queue.pop_front();
  }
}

void ShardedIds::AdvanceCoordinator(int64_t when_ns) {
  const sim::Time when = sim::Time::FromNanos(when_ns);
  if (when > coord_scheduler_.Now()) coord_scheduler_.RunUntil(when);
}

void ShardedIds::EmitAlert(Alert alert) {
  if (alert_callback_) alert_callback_(alert);
  // Ordered insert at the canonical position (see alerts()). Only the
  // alerts of the same instant are rendered, by a binary search among them.
  const auto [first, last] = std::equal_range(
      alerts_.begin(), alerts_.end(), alert,
      [](const Alert& a, const Alert& b) { return a.when < b.when; });
  auto at = last;
  if (first != last) {
    const std::string text = alert.ToString();
    at = std::upper_bound(first, last, text,
                          [](const std::string& t, const Alert& a) {
                            return t < a.ToString();
                          });
  }
  alerts_.insert(at, std::move(alert));
  if (config_.max_retained_alerts != 0 &&
      alerts_.size() > config_.max_retained_alerts) {
    alerts_.erase(alerts_.begin(),
                  alerts_.begin() + static_cast<ptrdiff_t>(alerts_.size() / 2));
  }
}

void ShardedIds::Flush(sim::Time now) {
  if (workers_joined_) return;  // Stop() replayed everything
  m_flushes_->Inc();
  const int64_t now_ns = std::max(now.nanos(), last_ingest_ns_);
  ++flush_token_;
  flush_acks_ = 0;
  // Each kFlush queues behind every packet already pushed to its shard.
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [&](ShardMsg& msg) {
      msg.kind = ShardMsg::Kind::kFlush;
      msg.when_ns = now_ns;
      msg.token = flush_token_;
    });
  }
  CommitAllDown(m_flush_barrier_);
  while (flush_acks_ < shards_.size()) {
    DrainUp();
    if (flush_acks_ < shards_.size()) std::this_thread::yield();
  }
  // Every shard acked — but an ack becomes visible with the batch's ring
  // commit, which precedes the shard's frontier store. Wait until every
  // aggregate-complete frontier actually reached now_ns, then the final
  // drain's (snapshot-before-drain) replay covers everything up to it.
  for (;;) {
    int64_t agg_frontier = INT64_MAX;
    for (const auto& shard : shards_) {
      agg_frontier = std::min(
          agg_frontier, shard->agg_complete_ns.load(std::memory_order_acquire));
    }
    if (agg_frontier >= now_ns) break;
    DrainUp();
    std::this_thread::yield();
  }
  DrainUp();
  // The replay reached now_ns: catch the coordinator's clock up. Its
  // periodic sweep stays armed while it holds flood/DRDoS groups, alert
  // signatures or behavior profiles, so running its timers to now_ns
  // reclaims them on the plain engine's horizons. The owner drain only
  // frees memory, so that TrackedState() reaches 0 once traffic stops.
  AdvanceCoordinator(now_ns);
  owners_.Drain(sim::Time::FromNanos(now_ns));
}

void ShardedIds::Stop() {
  if (workers_joined_) return;
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [](ShardMsg& msg) {
      msg.kind = ShardMsg::Kind::kStop;
    });
  }
  CommitAllDown(m_flush_barrier_);
  // A worker with ring backlog keeps emitting up-messages on its way to
  // the kStop and blocks in PushUp if its up-ring fills — so keep draining
  // until every worker has passed its kStop; only then is join()
  // guaranteed to return.
  for (;;) {
    bool all_done = true;
    for (const auto& shard : shards_) {
      if (!shard->done.load(std::memory_order_acquire)) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    DrainUp();
    std::this_thread::yield();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  workers_joined_ = true;
  // Workers are gone; ring contents are final. Drain and replay everything.
  DrainUp();
  ReplayAggregates(INT64_MAX);
}

void ShardedIds::WedgeWorkerForTest(int shard_index) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  shard.wedged.store(true, std::memory_order_release);
  PushDown(shard_index, [&](ShardMsg& msg) {
    msg.kind = ShardMsg::Kind::kWedge;
    msg.when_ns = last_ingest_ns_;
  });
  CommitAllDown(m_flush_barrier_);
}

void ShardedIds::UnwedgeWorkerForTest(int shard_index) {
  shards_[static_cast<size_t>(shard_index)]->wedged.store(
      false, std::memory_order_release);
}

// ------------------------------------------------------------- inspection

size_t ShardedIds::CountAlerts(AlertKind kind) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.kind == kind) ++count;
  }
  return count;
}

size_t ShardedIds::CountAlerts(std::string_view classification) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.classification == classification) ++count;
  }
  return count;
}

obs::MetricsRegistry ShardedIds::MergedMetrics() const {
  obs::MetricsRegistry merged;
  merged.MergeFrom(coord_metrics_);
  merged.MergeFrom(coordinator_.metrics());
  uint64_t up_stalls = 0;
  std::string prefix;
  for (const auto& shard : shards_) {
    merged.MergeFrom(shard->vids->metrics());
    // Pipeline histograms fold twice: bare (cross-shard aggregate, what
    // the latency table reads) and under "shard.<i>." (the per-shard
    // series the Prometheus exporter turns into shard="<i>" labels).
    merged.MergeFrom(shard->pipeline);
    prefix.assign("shard.");
    prefix.append(std::to_string(shard->index));
    prefix.push_back('.');
    merged.MergeFrom(shard->pipeline, prefix);
    merged.GetGauge(prefix + "ring.down_depth_hwm")
        .Set(static_cast<int64_t>(shard->down_hwm));
    merged.GetGauge(prefix + "ring.up_depth_hwm")
        .Set(static_cast<int64_t>(shard->up_hwm));
    merged.GetCounter(prefix + "ring.down_stalls").Inc(shard->down_stalls);
    merged.GetCounter(prefix + "ring.up_stalls").Inc(shard->up_stalls);
    up_stalls += shard->up_stalls;
  }
  merged.GetCounter("sharded.worker_stalls").Inc(up_stalls);
  merged.GetGauge("sharded.shards").Set(shards());
  merged.GetGauge("sharded.behavior_profiles")
      .Set(static_cast<int64_t>(behavior().profile_count()));
  return merged;
}

size_t ShardedIds::TrackedState() const {
  const CallStateFactBase& coord_fb = coordinator_.fact_base();
  size_t total = owners_.size() + coord_fb.keyed_count() +
                 coordinator_.alert_sig_count() + behavior().profile_count();
  for (const auto& shard : shards_) {
    const CallStateFactBase& fb = shard->vids->fact_base();
    total += fb.call_count() + fb.keyed_count() + fb.tombstone_count() +
             fb.media_index_count();
  }
  return total;
}

size_t ShardedIds::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& shard : shards_) {
    bytes += shard->vids->fact_base().MemoryBytes() +
             shard->vids->AlertSigBytes();
    bytes += shard->down.capacity() * sizeof(ShardMsg) +
             shard->up.capacity() * sizeof(UpMsg);
    // A down-ring slot's payload keeps the capacity of the largest datagram
    // it has carried. Only this (coordinator) thread writes those strings.
    for (const ShardMsg& msg : shard->down.slots()) {
      bytes += msg.dgram.payload.capacity();
    }
  }
  bytes += owners_.MemoryBytes();
  for (const auto& queue : pending_) bytes += queue.size() * sizeof(AggEvent);
  bytes += coordinator_.fact_base().MemoryBytes() +
           coordinator_.AlertSigBytes() + behavior().MemoryBytes();
  return bytes;
}

}  // namespace vids::ids
