#include "vids/sharded_ids.h"

#include <algorithm>
#include <chrono>

#include "common/backoff.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"

namespace vids::ids {

namespace {

// Call-ID → shard. FNV-1a over the raw bytes: Call-IDs are adversarial
// input, but the partition only needs balance, not collision resistance —
// a skewed shard is a throughput problem, never a correctness one.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

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

void ShardedIds::RecordSpan(Shard& shard, int64_t t0, int64_t t_dequeue) {
  const int64_t t_done = obs::MonotonicNanos();
  shard.lat_ingest_to_dequeue->Record(t_dequeue - t0);
  shard.lat_inspect->Record(t_done - t_dequeue);
  shard.lat_e2e->Record(t_done - t0);
  obs::Record rec;
  rec.type = obs::RecordType::kSpan;
  rec.when_ns = t0;
  rec.aux = static_cast<uint64_t>(t_done - t0);
  const auto micros = [](int64_t ns, int64_t cap) {
    const int64_t us = ns / 1000;
    return us > cap ? cap : (us < 0 ? int64_t{0} : us);
  };
  rec.a = static_cast<uint16_t>(micros(t_dequeue - t0, 65535));
  rec.from = static_cast<int16_t>(micros(t_done - t_dequeue, 32767));
  rec.to = static_cast<int16_t>(shard.index);
  shard.spans.Record(rec);
}

void ShardedIds::ProcessPacket(Shard& shard, size_t at, ShardMsg& msg,
                               net::Datagram& scratch) {
  // Sampled span: note the dequeue time and post the enqueue time where
  // the alert callback can see it. Unsampled packets (and the
  // sampling-off configuration) take one never-true branch.
  const int64_t span_t0 = msg.span_enqueue_ns;
  int64_t span_dequeue = 0;
  if (span_t0 != 0) {
    span_dequeue = obs::MonotonicNanos();
    shard.span_open_enqueue_ns = span_t0;
  }
  scratch.src = msg.dgram.src;
  scratch.dst = msg.dgram.dst;
  scratch.kind = msg.dgram.kind;
  scratch.padding_bytes = msg.dgram.padding_bytes;
  scratch.sent_time = msg.dgram.sent_time;
  scratch.id = msg.dgram.id;
  if (msg.in_arena) {
    // The payload bytes live in the arena slot paired with this ring slot
    // — one contiguous slab the coordinator memcpy'd into.
    scratch.payload.assign(shard.arena.Slot(shard.down.ConsumerIndex(at)),
                           msg.arena_len);
  } else {
    // Oversized payload took the slot-string path. Swap, don't copy: the
    // slot inherits the scratch's warm buffer for the coordinator's next
    // assign.
    scratch.payload.swap(msg.dgram.payload);
  }
  // Advance this shard's private clock so detection timers (flood
  // windows, RTCP grace, sweeps) fire exactly as in the single engine:
  // all events <= `when` run before the packet is inspected, matching
  // the scheduler's timer-before-same-time-packet order.
  AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
  shard.vids->Inspect(scratch, msg.from_outside);
  if (span_t0 != 0) {
    RecordSpan(shard, span_t0, span_dequeue);
    shard.span_open_enqueue_ns = 0;
  }
}

void ShardedIds::WorkerLoop(Shard& shard) {
  net::Datagram scratch;
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
          ProcessPacket(shard, consumed, msg, scratch);
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
    shard.down.PopN(consumed);

    // Worker-owned plain metric fields must be written before the commit
    // below: the coordinator reads `shard.pipeline` after acquiring the
    // flush ack published by this very batch.
    shard.batch_consumed->Record(static_cast<int64_t>(consumed));
    // One release store publishes every upstream message of this round
    // (alerts, aggregate events, acks) ...
    shard.up.CommitPushN();
    // ... then the frontiers. agg_complete first: the events it vouches
    // for are already committed above, so an acquire read that observes
    // the new frontier also observes them in the ring (DESIGN.md §11).
    shard.agg_complete_ns.store(watermark, std::memory_order_release);
    shard.processed_ns.store(watermark, std::memory_order_release);
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
  // watchdog mis-score genuine progress as a wedged worker. Bounded slices
  // keep both progress signals live: the wall-clock heartbeat and the
  // source-time frontier (processed_ns), which WatchdogCheck uses to
  // re-anchor open episodes.
  constexpr int64_t kSliceNs = 60'000'000'000;  // one simulated minute
  while (when.nanos() - scheduler.Now().nanos() > kSliceNs) {
    scheduler.RunUntil(scheduler.Now() + sim::Duration::Nanos(kSliceNs));
    shard.processed_ns.store(scheduler.Now().nanos(),
                             std::memory_order_release);
    shard.last_progress_ns.store(obs::MonotonicNanos(),
                                 std::memory_order_release);
  }
  scheduler.RunUntil(when);
}

// ------------------------------------------------------ coordinator: routing

int ShardedIds::ShardOfCallId(std::string_view call_id) const {
  return static_cast<int>(Fnv1a(call_id) % shards_.size());
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
    PushDown(retract.shard, [&](ShardMsg& msg, size_t) {
      msg.kind = ShardMsg::Kind::kRetractMedia;
      msg.when_ns = when_ns;
      msg.endpoint = endpoint;
    });
  }
}

template <typename Fill>
void ShardedIds::PushDown(int shard_index, Fill&& fill) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  // The arena slot paired with the ring slot BeginPushN hands out. Only
  // this thread pushes, so waiting out backpressure cannot move it.
  const size_t arena_slot = shard.down.ProducerNextIndex();
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
  fill(*slot, arena_slot);
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

void ShardedIds::DeadlineCheck(int64_t when_ns) {
  // Bounded-latency flush: a partial batch is published once it has been
  // open for kBatchFlushMicros, enforced in both clock domains — source
  // time first (an integer compare, no clock read), then wall clock — so a
  // faster-than-real-time replay cannot hold a pre-gap packet unpublished
  // while the stream's own clock races far past it.
  if (open_batches_ == 0) {
    deadline_armed_ = false;
    return;
  }
  if (!deadline_armed_) {
    deadline_armed_ = true;
    deadline_since_ns_ = obs::MonotonicNanos();
    deadline_src_ns_ = when_ns;
    return;
  }
  constexpr int64_t kDeadlineNs = kBatchFlushMicros * 1000;
  if (when_ns - deadline_src_ns_ >= kDeadlineNs ||
      obs::MonotonicNanos() - deadline_since_ns_ >= kDeadlineNs) {
    CommitAllDown(m_flush_deadline_);
  }
}

void ShardedIds::Ingest(const net::Datagram& dgram, bool from_outside,
                        sim::Time when) {
  if (workers_joined_) return;  // stopped engines drop quietly
  const int64_t when_ns = when.nanos();
  last_ingest_ns_ = std::max(last_ingest_ns_, when_ns);

  // Replicate the classifier's dispatch order (classifier.cpp) so the
  // router and the shard-side classifier agree on what a packet is:
  // RTCP first — by the same rtp::IsRtcp decision — then the hint-ordered
  // SIP attempt, then endpoint routing for RTP and everything else. The
  // kSip-vs-content check is byte-accurate (the same lazy parser); the kRtp
  // hint is trusted — a payload labeled RTP never reaches the SIP router,
  // which is exactly the classifier's behavior for parseable RTP.
  int target;
  if (rtp::IsRtcp(dgram.payload) && dgram.dst.port >= 1) {
    // Fold RTCP onto its media endpoint (port − 1) so the control and media
    // halves of one stream meet on one shard, as in Vids::HandleRtcp.
    const net::Endpoint media{dgram.dst.ip,
                              static_cast<uint16_t>(dgram.dst.port - 1)};
    target = RouteEndpoint(media, when_ns);
  } else if (dgram.kind != net::PayloadKind::kRtp &&
             lazy_.Index(dgram.payload)) {
    const auto call_id = lazy_.CallId();
    target = ShardOfCallId(call_id.value_or(std::string_view()));
    m_sip_routed_->Inc();
    if (call_id.has_value() && !lazy_.body().empty()) {
      SnoopSdp(lazy_.body(), target, when_ns);
    }
  } else {
    target = RouteEndpoint(dgram.dst, when_ns);
  }

  // Span sampling: one in trace_sample_period packets gets its enqueue
  // wall time stamped into the slot; the worker closes the span. With
  // sampling off this is a single always-false branch — no clock read.
  int64_t span_ns = 0;
  if (trace_on_ && ((++trace_tick_ & trace_mask_) == 0)) {
    span_ns = obs::MonotonicNanos();
  }

  PushDown(target, [&](ShardMsg& msg, size_t arena_slot) {
    msg.kind = ShardMsg::Kind::kPacket;
    msg.when_ns = when_ns;
    msg.span_enqueue_ns = span_ns;  // always assigned: slots are reused
    msg.from_outside = from_outside;
    msg.dgram.src = dgram.src;
    msg.dgram.dst = dgram.dst;
    msg.dgram.kind = dgram.kind;
    msg.dgram.padding_bytes = dgram.padding_bytes;
    msg.dgram.sent_time = dgram.sent_time;
    msg.dgram.id = dgram.id;
    Shard& shard = *shards_[static_cast<size_t>(target)];
    if (shard.arena.Fits(dgram.payload.size())) {
      // Fast path: payload bytes go to the contiguous slab; the slot's own
      // string is left untouched (its stale bytes are dead — arena_len is
      // the source of truth).
      shard.arena.Store(arena_slot, dgram.payload.data(),
                        dgram.payload.size());
      msg.in_arena = true;
      msg.arena_len = static_cast<uint32_t>(dgram.payload.size());
    } else {
      msg.in_arena = false;
      msg.arena_len = 0;
      msg.dgram.payload.assign(dgram.payload);  // reuses the slot's capacity
    }
  });

  DeadlineCheck(when_ns);
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
    const int64_t src = shard.processed_ns.load(std::memory_order_acquire);
    if (depth == 0) {
      // Nothing pending — an idle worker is healthy however old its
      // heartbeat is (idle-then-burst must not alert).
      h.hb_seen = hb;
      h.src_seen = src;
      h.pending_since_ns = 0;
      h.alerted = false;
      continue;
    }
    if (!continuous || h.pending_since_ns == 0 || hb != h.hb_seen ||
        src != h.src_seen) {
      // Progress since last check (or no episode yet): anchor a fresh
      // episode at the first continuously-observed no-progress instant.
      // Source-reported time counts as progress in its own right: under
      // replay the worker can be busy sweeping a capture gap (or a slice
      // heartbeat may land between our polls), and a worker whose stream
      // clock advances is by definition not wedged.
      h.hb_seen = hb;
      h.src_seen = src;
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
  int64_t frontier = INT64_MAX;
  for (const auto& shard : shards_) {
    frontier = std::min(
        frontier, shard->agg_complete_ns.load(std::memory_order_acquire));
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
  // Ordered insert at the canonical position (see alerts()). Alerts
  // arrive near-sorted — each source's stream is time-ordered — so the
  // upper_bound lands near the back, and the retained history stays small
  // under max_retained_alerts.
  AlertKey key{alert.when.nanos(), alert.ToString()};
  const auto it =
      std::upper_bound(alert_keys_.begin(), alert_keys_.end(), key);
  const auto at = it - alert_keys_.begin();
  alert_keys_.insert(it, std::move(key));
  alerts_.insert(alerts_.begin() + at, std::move(alert));
  if (config_.max_retained_alerts != 0 &&
      alerts_.size() > config_.max_retained_alerts) {
    const auto drop = static_cast<ptrdiff_t>(alerts_.size() / 2);
    alerts_.erase(alerts_.begin(), alerts_.begin() + drop);
    alert_keys_.erase(alert_keys_.begin(), alert_keys_.begin() + drop);
  }
}

void ShardedIds::Flush(sim::Time now) {
  if (workers_joined_) {
    ReplayAggregates(INT64_MAX);
    return;
  }
  m_flushes_->Inc();
  const int64_t now_ns = std::max(now.nanos(), last_ingest_ns_);
  ++flush_token_;
  flush_acks_ = 0;
  // Each kFlush queues behind every packet already pushed to its shard.
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [&](ShardMsg& msg, size_t) {
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
  PruneCoordinator(now_ns);
}

void ShardedIds::PruneCoordinator(int64_t now_ns) {
  // A media-owner entry is refreshed by every RTP hit, so idleness past the
  // shard-side state horizon (tombstone TTL + keyed idle timeout) means no
  // shard still holds state for the endpoint; routing can safely fall back
  // to the hash. (Streams with longer in-stream gaps would re-route — the
  // keyed group they'd rejoin was reclaimed at the 30 s idle timeout
  // anyway, so the fresh-count behavior matches the single engine.)
  const int64_t owner_horizon_ns =
      (config_.detection.tombstone_ttl + config_.detection.keyed_idle_timeout)
          .nanos();
  owners_.Prune(now_ns, owner_horizon_ns);

  // The replay reached now_ns: catch the coordinator's clock up, then
  // sweep as the plain engine's packet path would. The coordinator fact
  // base arms its periodic sweep only while it holds flood/DRDoS groups,
  // so without this call behavior profiles and alert signatures would
  // never be reclaimed on a behavior-only stream. Sweep cadence is
  // unobservable in alerts (DESIGN.md §9, §16).
  AdvanceCoordinator(now_ns);
  coordinator_.fact_base().Sweep(coord_scheduler_.Now());
}

void ShardedIds::Stop() {
  if (workers_joined_) return;
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [](ShardMsg& msg, size_t) {
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
  PushDown(shard_index, [&](ShardMsg& msg, size_t) {
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
    bytes += shard->vids->fact_base().MemoryBytes();
    bytes += shard->down.capacity() * sizeof(ShardMsg) +
             shard->arena.MemoryBytes() +
             shard->up.capacity() * sizeof(UpMsg);
  }
  bytes += owners_.MemoryBytes();
  for (const auto& queue : pending_) bytes += queue.size() * sizeof(AggEvent);
  bytes += coordinator_.fact_base().MemoryBytes() +
           coordinator_.alert_sig_count() *
               (sizeof(detail::AlertSig) + sizeof(sim::Time)) +
           behavior().MemoryBytes();
  return bytes;
}

}  // namespace vids::ids
