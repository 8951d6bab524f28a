// Sharded multi-worker vIDS engine.
//
// The paper's vIDS keeps its state strictly per call (one EFSM group per
// Call-ID) and per key (media endpoint, destination AOR, victim host) —
// there is no cross-call coupling in the fact base itself. That makes the
// engine horizontally partitionable: ShardedIds runs N complete, private
// `Vids` instances ("shards"), one worker thread each. The coordinator
// thread — the one that calls Ingest — classifies each packet just far
// enough to route it, so every piece of keyed state is only ever touched
// by one worker:
//
//   SIP            → FNV-1a(Call-ID) mod N. All packets of a dialog land on
//                    one shard, so call groups, tombstones and the per-call
//                    patterns behave exactly as in the single engine.
//   RTP            → media-endpoint owner (MediaOwnerMap, maintained by an
//                    SDP snoop on the routed SIP traffic: the endpoint
//                    belongs to the shard of the call that negotiated it),
//                    falling back to a hash of the destination endpoint for
//                    unnegotiated media. Either way one endpoint → one
//                    shard, so the per-endpoint pattern groups (RTP flood,
//                    media spam, RTCP BYE) count a coherent stream.
//   RTCP           → folded onto its media endpoint (port − 1) and routed
//                    like RTP, so the ghost-media machine sees both halves.
//   anything else  → hash of the destination endpoint.
//
// Each shard has ONE down ring (common/spsc_ring.h), paired 1:1 with a
// PayloadArena slab so steady-state ingest memcpys payload bytes into a
// contiguous arena instead of scattered slot strings, and one up ring. Both
// rings publish in batches of up to kBatchMax slots per release/acquire
// pair. The down ring carries packets, media retracts and the flush/stop/
// wedge control messages in push order, so the ring itself orders a
// barrier after every packet ingested before it (DESIGN.md §11).
//
// The two detectors whose counting key spans calls — INVITE flooding (per
// destination AOR) and DRDoS reflection (per victim host) — cannot live in
// any one shard, and neither can the entity-keyed behavior profiles.
// Shards push their aggregate events straight into the open up batch; the
// coordinator merges the per-shard streams by time, gated on every shard's
// aggregate-complete frontier, and replays them into its own Vids on a
// coordinator-private scheduler — the same EFSM groups, alert dedup and
// behavior engine the plain engine runs inline. See DESIGN.md §11.
//
// Thread-ownership invariants (DESIGN.md §11):
//   - each shard's Scheduler + Vids are touched only by its worker thread;
//     the coordinator's Scheduler + Vids only by the coordinator thread;
//   - every ring is strict SPSC: down ring ↔ the coordinator thread as
//     producer, up ring ↔ the worker as producer;
//   - exactly one thread drives the whole public surface (Ingest/Pump/
//     Flush/Stop/MergedMetrics); post-Flush ingest must carry times
//     strictly after the flush instant;
//   - alerts, aggregate events and acks flow only upstream.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/payload_arena.h"
#include "common/spsc_ring.h"
#include "net/datagram.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sip/lazy_message.h"
#include "vids/alert.h"
#include "vids/config.h"
#include "vids/ids.h"
#include "vids/media_owner_map.h"

namespace vids::ids {

struct ShardedConfig {
  /// Number of worker shards (>= 1). 1 reproduces the single-engine
  /// behavior with the pipeline in place.
  int shards = 1;
  /// Per-ring slot count (rounded up to a power of two). A full ring
  /// backpressures the coordinator; it never drops or allocates.
  size_t ring_capacity = 1024;
  DetectionConfig detection{};
  /// Cap on the coordinator's merged alert history (0 = unlimited); same
  /// drop-oldest-half policy as Vids::set_max_retained_alerts.
  size_t max_retained_alerts = 0;

  // --- pipeline observability (DESIGN.md §13) ---
  /// Sample one in this many ingested packets for a pipeline span: the
  /// coordinator stamps the enqueue wall time, the worker records
  /// ingest→dequeue / inspect / end-to-end (and, if the packet alerted,
  /// ingest→alert) into its shard-local latency histograms plus a kSpan
  /// flight record. Rounded up to a power of two. 0 disables tracing: the
  /// ingest path then carries a single always-false branch — no clock
  /// read, no counter tick — and the worker's span branch never takes.
  uint32_t trace_sample_period = 1024;
  /// Watchdog deadline (wall clock): a shard whose down ring stays
  /// non-empty while its worker's heartbeat does not advance for this long
  /// raises one structured EngineHealth alert per stall episode. 0
  /// disables the watchdog (and the worker's per-batch heartbeat clock
  /// read).
  int64_t watchdog_stall_ms = 2000;
};

class ShardedIds {
 public:
  /// Max ring slots published/consumed per release/acquire pair, on both
  /// rings: amortizes the index fences and the consumer wakeups over the
  /// batch (DESIGN.md §12).
  static constexpr size_t kBatchMax = 32;
  /// Per-slot byte budget of each down ring's payload arena (the slab is
  /// ring capacity × this). Payloads that fit are memcpy'd into the
  /// contiguous slab; larger ones fall back to the ring slot's own string.
  static constexpr size_t kArenaSlotBytes = 2048;
  /// Bound on how long a partial down-ring batch may stay unpublished while
  /// Ingest keeps being called — enforced in BOTH clock domains: wall
  /// clock, and the source timestamps carried by Ingest, so a faster-than-
  /// real-time replay (pcap/trace) cannot hold packets unpublished across a
  /// capture gap that spans almost no wall time. Flush() and Stop() always
  /// publish immediately.
  static constexpr int64_t kBatchFlushMicros = 50;

  explicit ShardedIds(ShardedConfig config);
  ~ShardedIds();
  ShardedIds(const ShardedIds&) = delete;
  ShardedIds& operator=(const ShardedIds&) = delete;

  /// Routes one packet to its shard. `when` must be non-decreasing across
  /// calls. Blocks while the target ring is full (backpressure), draining
  /// upstream meanwhile; drains upstream opportunistically otherwise.
  void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when);

  /// Publishes every open down-ring batch, then drains the up rings:
  /// collects shard alerts, advances the aggregate replay to the current
  /// frontier. Cheap when nothing is pending.
  void Pump();

  /// Quiescence barrier: every packet ingested so far is fully processed,
  /// every shard's detection timers have advanced to `now`, all aggregate
  /// events up to `now` are replayed and the coordinator's scheduler has
  /// advanced to `now` too, and shard state (metrics(), fact_base()) may be
  /// read until the next Ingest. Also prunes the idle media-owner entries.
  void Flush(sim::Time now);

  /// Stops and joins the workers, then drains everything still in flight.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Merged alert stream in canonical order: by alert time, same-instant
  /// ties broken lexicographically by the rendered alert text. The key is
  /// a pure function of the alert content, never of arrival order, so the
  /// retained history renders byte-identically across runs, worker
  /// interleavings and shard counts — the equivalence gates diff it
  /// directly. (Comparisons against the direct Vids engine must
  /// canonicalize its stream the same way: within one instant the direct
  /// engine keeps causal emission order instead.)
  const std::vector<Alert>& alerts() const { return alerts_; }
  size_t CountAlerts(AlertKind kind) const;
  size_t CountAlerts(std::string_view classification) const;
  void set_alert_callback(std::function<void(const Alert&)> cb) {
    alert_callback_ = std::move(cb);
  }

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Shard access for post-Flush inspection (tests, the soak sampler).
  Vids& shard_vids(int i) { return *shards_[static_cast<size_t>(i)]->vids; }
  const Vids& shard_vids(int i) const {
    return *shards_[static_cast<size_t>(i)]->vids;
  }

  /// The coordinator Vids's behavior engine — the single authority for
  /// behavioral profiles in a sharded deployment, fed by the aggregate
  /// replay. Post-Flush inspection only.
  const behavior::BehaviorEngine& behavior() const {
    return coordinator_.behavior();
  }

  /// Fresh registry holding every shard's and the coordinator Vids's
  /// metrics folded together plus the coordinator's own "sharded.*"
  /// counters. Post-Flush only.
  obs::MetricsRegistry MergedMetrics() const;

  /// Total tracked state across shards (calls + keyed groups + tombstones +
  /// media index) plus the coordinator's owner map, flood/DRDoS groups,
  /// alert signatures and behavior profiles. Post-Flush.
  size_t TrackedState() const;
  /// Total state footprint in bytes (fact bases, rings, arenas, owner map,
  /// the coordinator's replay queues and Vids state). Post-Flush.
  size_t MemoryBytes() const;

  /// Times Ingest or a control push found a down ring full and had to
  /// wait.
  uint64_t ingest_stalls() const { return m_stalls_->value(); }
  /// Media-ownership transfers routed between shards so far.
  uint64_t ownership_transfers() const { return m_retracts_->value(); }
  /// First-SDP-claim retractions sent to an endpoint's hash-fallback shard
  /// (early media arrived before its negotiation).
  uint64_t early_media_retracts() const { return m_early_retracts_->value(); }
  /// Stall episodes the watchdog has alerted on (one per episode).
  uint64_t watchdog_stalls() const { return m_watchdog_stalls_->value(); }

  /// The shard's last 32 sampled pipeline spans (kSpan flight records,
  /// oldest first). Post-Flush only.
  const obs::FlightRecorder& shard_spans(int i) const {
    return shards_[static_cast<size_t>(i)]->spans;
  }

  /// Test hooks: deliberately stall / release a worker so the watchdog's
  /// stall detection can be exercised. A wedged worker keeps its down ring
  /// non-empty and its heartbeat frozen until un-wedged.
  void WedgeWorkerForTest(int shard);
  void UnwedgeWorkerForTest(int shard);

 private:
  /// One aggregate event in flight: owned copies of a
  /// Vids::AggregateEvent's views plus the shard time it happened at.
  struct AggEvent {
    int64_t when_ns = 0;
    Vids::AggregateKind kind{};
    std::string key;
    net::IpAddress src_ip;
    net::IpAddress dst_ip;
    std::string peer;
    std::string ua;
    uint64_t aux = 0;

    /// Copies `event` in, reusing this object's string capacities.
    void Assign(int64_t when, const Vids::AggregateEvent& event);
    Vids::AggregateEvent View() const {
      return {.kind = kind, .key = key, .src_ip = src_ip, .dst_ip = dst_ip,
              .peer = peer, .ua = ua, .aux = aux};
    }
  };

  // ---- messages ----
  struct ShardMsg {
    enum class Kind : uint8_t {
      kPacket,
      kRetractMedia,
      kFlush,
      kStop,
      kWedge,  // test hook (watchdog)
    };
    Kind kind = Kind::kPacket;
    int64_t when_ns = 0;
    /// Pipeline span: wall-clock enqueue time of a sampled kPacket, 0 for
    /// unsampled ones (always assigned — ring slots are reused in place).
    int64_t span_enqueue_ns = 0;
    bool from_outside = false;
    /// kPacket payload location: bytes live in the arena slot paired with
    /// this ring slot when in_arena, in dgram.payload otherwise.
    bool in_arena = false;
    uint32_t arena_len = 0;
    net::Datagram dgram;     // kPacket (payload string reused in place)
    net::Endpoint endpoint;  // kRetractMedia
    uint64_t token = 0;      // kFlush
  };
  struct UpMsg {
    enum class Kind : uint8_t { kAlert, kAgg, kFlushAck };
    Kind kind = Kind::kAlert;
    Alert alert;         // kAlert (strings reused in place)
    AggEvent agg;        // kAgg (strings reused in place)
    uint64_t token = 0;  // kFlushAck
  };

  struct Shard {
    /// Coordinator → worker: packets, retracts and control messages in
    /// push order, plus the payload slab paired 1:1 with its slots.
    common::SpscRing<ShardMsg> down;
    common::PayloadArena arena;
    common::SpscRing<UpMsg> up;
    std::unique_ptr<sim::Scheduler> scheduler;
    std::unique_ptr<Vids> vids;
    std::thread thread;
    int index = 0;

    // --- pipeline observability (DESIGN.md §13) ---
    /// Worker-private metrics: latency + batch histograms, no cross-shard
    /// atomics on the hot path. The worker is the only writer; the
    /// coordinator folds it into MergedMetrics() behind a Flush() barrier
    /// (both bare and under the "shard.<i>." prefix). Slots are resolved
    /// in the constructor, before the worker thread starts.
    obs::MetricsRegistry pipeline;
    obs::Histogram* lat_ingest_to_dequeue = nullptr;
    obs::Histogram* lat_inspect = nullptr;
    obs::Histogram* lat_e2e = nullptr;
    obs::Histogram* lat_ingest_to_alert = nullptr;
    obs::Histogram* batch_consumed = nullptr;
    /// Last 32 sampled spans as kSpan flight records (worker-owned;
    /// post-Flush read via shard_spans()).
    obs::FlightRecorder spans;
    /// Enqueue wall time of the sampled packet currently being inspected
    /// (worker-owned plain slot; lets the alert callback attribute an
    /// ingest→alert latency to the span). 0 between sampled packets.
    int64_t span_open_enqueue_ns = 0;
    /// Down-ring depth high-water mark and backpressure waits
    /// (coordinator-owned — the down ring's producer side) and the up-ring
    /// mirror (worker-owned). Folded into MergedMetrics() post-Flush.
    uint64_t down_hwm = 0;
    uint64_t down_stalls = 0;
    uint64_t up_hwm = 0;
    /// Watchdog heartbeat: wall-clock time of the last batch this worker
    /// fully retired — or, during a sliced clock catch-up across a capture
    /// gap (AdvanceShardClock), of the last completed slice. Release-stored
    /// (only when the watchdog is enabled — the disabled config never
    /// reads the clock). A worker that is wedged, spinning in PushUp, or
    /// dead stops advancing it.
    std::atomic<int64_t> last_progress_ns{0};
    /// Test hook: while set, the worker sleeps on its kWedge message
    /// (heartbeat frozen, down ring non-empty) — a deliberate stall.
    std::atomic<bool> wedged{false};
    /// Source-time progress frontier: the highest packet/flush time this
    /// worker fully processed (post-batch), or its scheduler's position
    /// mid-catch-up (watchdog-enabled configs only). Post-batch stores are
    /// release-ordered after every upstream message for that time; the
    /// watchdog additionally reads this as source-reported progress so a
    /// worker sweeping through a replayed capture gap re-anchors its stall
    /// episode instead of alerting.
    std::atomic<int64_t> processed_ns{0};
    /// Aggregate-complete frontier: every aggregate event this shard will
    /// ever emit with when_ns <= this value is already published in the
    /// up-ring. Written (release) with the batch watermark after the
    /// batch's up-ring commit; the coordinator's replay gate is the min of
    /// these across shards. processed_ns cannot serve: AdvanceShardClock's
    /// catch-up slices store it mid-batch, before that commit.
    std::atomic<int64_t> agg_complete_ns{0};
    /// Times this worker found its up-ring full (worker-owned plain slot;
    /// the coordinator folds it into MergedMetrics post-Flush).
    uint64_t up_stalls = 0;
    /// Set (release) by the worker after it popped kStop, just before it
    /// returns. Stop() keeps draining the up-rings until every worker has
    /// raised this — a worker with backlog can be blocked in PushUp on a
    /// full up-ring, and joining it without draining would deadlock.
    std::atomic<bool> done{false};

    explicit Shard(size_t ring_capacity)
        : down(ring_capacity),
          arena(down.capacity(), kArenaSlotBytes),
          up(ring_capacity) {}
  };

  /// Coordinator-side view of one worker's health (coordinator thread).
  /// A stall episode is anchored when the shard's down ring first shows
  /// pending work with an unchanged heartbeat, and cleared by any progress
  /// — wall-clock heartbeat or source-reported time. The second anchor is
  /// what keeps faster-than-real-time replay honest: a worker sweeping
  /// timers across a replayed capture gap advances processed_ns even when
  /// a heartbeat store has not landed yet.
  struct ShardHealth {
    int64_t hb_seen = -1;
    int64_t src_seen = -1;
    int64_t pending_since_ns = 0;  // 0 = no open episode
    bool alerted = false;
  };

  // ---- worker side ----
  void WorkerLoop(Shard& shard);
  /// Inspects one kPacket whose ring slot is At(`at`).
  void ProcessPacket(Shard& shard, size_t at, ShardMsg& msg,
                     net::Datagram& scratch);
  /// Advances a shard's private scheduler to `when` (no-op if already
  /// there). With the watchdog enabled, large jumps — replayed capture
  /// gaps — run in bounded slices with a heartbeat and a processed_ns
  /// store per slice, so mid-batch catch-up work is visible as progress.
  void AdvanceShardClock(Shard& shard, sim::Time when);
  /// Records a sampled packet's span: latency histograms + a kSpan flight
  /// record. `t0` is the enqueue wall time, `t_dequeue` the worker's
  /// dequeue wall time; called right after Inspect returns.
  void RecordSpan(Shard& shard, int64_t t0, int64_t t_dequeue);
  // Fill-callbacks are template parameters (not std::function) so the
  // per-packet push never allocates a callable. Defined in the .cpp — only
  // that TU instantiates them.
  template <typename Fill>
  void PushUp(Shard& shard, Fill&& fill);
  // ---- coordinator: routing ----
  /// Endpoint → shard: the owner map, hash fallback on miss.
  int RouteEndpoint(const net::Endpoint& endpoint, int64_t when_ns);
  int ShardOfCallId(std::string_view call_id) const;
  int HashShardOfEndpoint(uint64_t packed_key) const;
  /// Claims the SDP body's audio endpoint for `shard` in the owner map and
  /// pushes the resulting kRetractMedia message.
  void SnoopSdp(std::string_view body, int shard, int64_t when_ns);
  /// Reserves and fills one down-ring slot of `shard`; fill receives the
  /// slot and its arena index. While the ring is full, publishes every
  /// open batch and drains upstream (backpressure).
  template <typename Fill>
  void PushDown(int shard, Fill&& fill);
  /// Publishes `shard`'s open down batch, counting it under `reason`.
  void CommitDown(Shard& shard, obs::Counter* reason);
  /// Publishes every shard's open down batch (one release store each).
  void CommitAllDown(obs::Counter* reason);
  /// The dual-clock partial-batch deadline (kBatchFlushMicros).
  void DeadlineCheck(int64_t when_ns);

  // ---- coordinator: upstream ----
  void DrainUp();
  /// Replays pending aggregate events with when_ns <= `frontier` in global
  /// time order. The frontier must have been snapshotted (min
  /// agg_complete_ns, acquire) BEFORE the drain that filled pending_;
  /// INT64_MAX replays everything (only valid once the rings are final).
  void ReplayAggregates(int64_t frontier);
  /// Advances the coordinator's scheduler to `when_ns` (no-op if already
  /// there): every coordinator timer due at or before it fires first.
  void AdvanceCoordinator(int64_t when_ns);
  /// Inserts into the retained history at its canonical position (see
  /// alerts()).
  void EmitAlert(Alert alert);
  /// Flush-time reclamation: prunes idle owner-map entries, then advances
  /// the coordinator Vids to `now_ns` and sweeps it.
  void PruneCoordinator(int64_t now_ns);
  /// Stall detector (coordinator thread, called from DrainUp and throttled
  /// to ~threshold/8): raises one EngineHealth alert per stall episode.
  /// Every blocking loop (backpressure, Flush, Stop) drains through here,
  /// so a wedged worker surfaces instead of hanging silently.
  void WatchdogCheck();

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Media-endpoint ownership, coordinator thread only.
  MediaOwnerMap owners_;
  sip::LazyMessage lazy_;  // routing parser, reused across packets
  bool workers_joined_ = false;
  int64_t last_ingest_ns_ = 0;
  uint64_t ingest_count_ = 0;
  uint32_t trace_tick_ = 0;
  uint64_t flush_token_ = 0;
  size_t flush_acks_ = 0;
  /// Shards whose down ring holds an open (unpublished) batch, and the
  /// partial-batch deadline armed while any does (both clock domains).
  size_t open_batches_ = 0;
  bool deadline_armed_ = false;
  int64_t deadline_since_ns_ = 0;
  int64_t deadline_src_ns_ = 0;

  /// The aggregate replay target (DESIGN.md §11, §16): a full Vids on a
  /// coordinator-private scheduler, fed exclusively through FeedAggregate
  /// from the frontier-gated merge, so it consumes the identical globally
  /// time-ordered event stream the plain engine's inline path sees — its
  /// flood/DRDoS EFSM groups, alert dedup and behavior engine are the
  /// plain engine's own code. Coordinator thread only.
  sim::Scheduler coord_scheduler_;
  Vids coordinator_;
  std::vector<std::deque<AggEvent>> pending_;  // per-shard, time-ordered

  /// Span sampling. trace_on_/trace_mask_ are derived from
  /// trace_sample_period once in the constructor; the off configuration
  /// leaves trace_on_ false and the sampling check is one dead branch.
  bool trace_on_ = false;
  uint32_t trace_mask_ = 0;

  /// Watchdog (coordinator thread). threshold 0 = disabled; checks
  /// throttle to poll_ns so the hot path reads the clock at most once per
  /// poll window.
  int64_t watchdog_threshold_ns_ = 0;
  int64_t watchdog_poll_ns_ = 0;
  int64_t last_watchdog_check_ns_ = 0;
  std::vector<ShardHealth> health_;

  /// Canonical deterministic sort key of each retained alert (parallel to
  /// alerts_): alert time, ties broken by the rendered alert text.
  struct AlertKey {
    int64_t when_ns = 0;
    std::string text;
    bool operator<(const AlertKey& o) const {
      if (when_ns != o.when_ns) return when_ns < o.when_ns;
      return text < o.text;
    }
  };
  std::vector<Alert> alerts_;
  std::vector<AlertKey> alert_keys_;
  std::function<void(const Alert&)> alert_callback_;

  obs::MetricsRegistry coord_metrics_;
  obs::Counter* m_stalls_;
  obs::Counter* m_sip_routed_;
  obs::Counter* m_owner_routed_;
  obs::Counter* m_hash_routed_;
  obs::Counter* m_early_retracts_;
  obs::Counter* m_retracts_;
  obs::Counter* m_agg_events_;
  obs::Counter* m_flushes_;
  obs::Counter* m_watchdog_stalls_;
  obs::Counter* m_flush_full_;
  obs::Counter* m_flush_deadline_;
  obs::Counter* m_flush_barrier_;
  /// Size of every published nonzero down batch.
  obs::Histogram* m_batch_committed_;
};

}  // namespace vids::ids
