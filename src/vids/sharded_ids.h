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
// contiguous arena instead of scattered slot strings, and one up ring. The
// down ring carries packets, media retracts and the flush/stop/hot-key/
// wedge control messages in push order, so the ring itself orders a
// barrier after every packet ingested before it (DESIGN.md §11).
//
// The two detectors whose counting key spans calls — INVITE flooding (per
// destination AOR) and DRDoS reflection (per victim host) — cannot live in
// any one shard. Shards buffer their would-be events in a local,
// time-ordered staging buffer with per-key escalation sketches; the
// coordinator replays the merged, time-ordered event stream into its own
// window counters gated on the aggregate-complete frontier. See
// DESIGN.md §12 for the exactness argument.
//
// Thread-ownership invariants (DESIGN.md §11):
//   - each shard's Scheduler + Vids are touched only by its worker thread;
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
#include <unordered_map>
#include <vector>

#include "common/payload_arena.h"
#include "common/spsc_ring.h"
#include "common/strings.h"
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
  CostModel cost{};
  /// Cap on the coordinator's merged alert history (0 = unlimited); same
  /// drop-oldest-half policy as Vids::set_max_retained_alerts.
  size_t max_retained_alerts = 0;

  // --- batching (DESIGN.md §12) ---
  /// Max ring slots published/consumed per release/acquire pair. 1
  /// reproduces the PR-5 slot-at-a-time handoff exactly; larger values
  /// amortize the index fences and the consumer wakeups over the batch.
  size_t batch_max = 32;

  // --- coordinator-free aggregate path (DESIGN.md §12) ---
  /// How long (simulated time) a shard may hold a cold aggregate event
  /// locally before shipping it upstream. Larger values batch harder and
  /// delay cold-key replay by at most this much; alerts carry event
  /// timestamps, so the alert multiset is unaffected. 0 ships every event
  /// at the end of the batch that produced it (PR-5 behavior, batched).
  sim::Duration agg_hold = sim::Duration::Millis(250);
  /// Fraction of the per-shard escalation share at which a key turns hot.
  /// The share is ceil((threshold + 1) / shards): by pigeonhole at least
  /// one shard reaches it inside any globally over-threshold window, so
  /// values <= 1.0 preserve exact alerts (lower escalates earlier and
  /// ships more events eagerly; values above 1.0 are clamped to 1.0).
  double agg_escalation_fraction = 1.0;

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
  /// events up to `now` are replayed, and shard state (metrics(),
  /// fact_base()) may be read until the next Ingest. Also prunes the idle
  /// media-owner entries.
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

  /// The coordinator's behavior engine — the single authority for
  /// behavioral profiles in a sharded deployment, fed by the aggregate
  /// replay. Post-Flush inspection only.
  const behavior::BehaviorEngine& behavior() const { return behavior_; }

  /// Fresh registry holding every shard's metrics folded together plus the
  /// coordinator's own "sharded.*" counters. Post-Flush only.
  obs::MetricsRegistry MergedMetrics() const;

  /// Total tracked state across shards (calls + keyed groups + tombstones +
  /// media index) plus the coordinator's router/replay maps. Post-Flush.
  size_t TrackedState() const;
  /// Total state footprint in bytes (fact bases, rings, arenas, owner map,
  /// coordinator maps). Post-Flush.
  size_t MemoryBytes() const;

  /// Times Ingest or a control push found a down ring full and had to
  /// wait.
  uint64_t ingest_stalls() const { return m_stalls_->value(); }
  /// Media-ownership transfers routed between shards so far.
  uint64_t ownership_transfers() const { return m_retracts_->value(); }
  /// First-SDP-claim retractions sent to an endpoint's hash-fallback shard
  /// (early media arrived before its negotiation).
  uint64_t early_media_retracts() const { return m_early_retracts_->value(); }
  /// Shard-local sketch escalations reported to the coordinator: keys whose
  /// local event density alone proved they could sit inside a globally
  /// over-threshold window, and so turned hot (DESIGN.md §12).
  uint64_t aggregate_escalations() const { return m_escalations_->value(); }

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
  template <typename T>
  using StringKeyed =
      std::unordered_map<std::string, T, common::StringHash, std::equal_to<>>;

  // ---- messages ----
  struct ShardMsg {
    enum class Kind : uint8_t {
      kPacket,
      kRetractMedia,
      kFlush,
      kStop,
      kAggHot,  // `key` escalated on some shard
      kWedge,   // test hook (watchdog)
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
    net::Datagram dgram;        // kPacket (payload string reused in place)
    net::Endpoint endpoint;     // kRetractMedia
    uint64_t token = 0;         // kFlush
    Vids::AggregateKind agg{};  // kAggHot
    std::string key;            // kAggHot (reused in place)
  };
  struct UpMsg {
    enum class Kind : uint8_t { kAlert, kAgg, kAggHot, kFlushAck };
    Kind kind = Kind::kAlert;
    int64_t when_ns = 0;
    Alert alert;                 // kAlert (strings reused in place)
    Vids::AggregateKind agg{};   // kAgg / kAggHot
    std::string key;             // kAgg: dest AOR (INVITE) / victim IP
                                 // (DRDoS) / profiled entity AOR (behavior)
    std::string src_ip;          // kAgg: for the alert detail
    std::string dst_ip;
    std::string peer;            // kAgg behavior: destination AOR
    std::string ua;              // kAgg behavior: User-Agent header
    uint64_t aux = 0;            // kAgg behavior: call hash / source id
    uint64_t token = 0;          // kFlushAck
  };

  /// One shard-local held-back aggregate event (worker-owned).
  struct HeldAggEvent {
    int64_t when_ns = 0;
    Vids::AggregateKind kind{};
    std::string key;
    std::string src_ip;
    std::string dst_ip;
    std::string peer;
    std::string ua;
    uint64_t aux = 0;
  };

  /// Per-key sliding sketch of this shard's most recent aggregate-event
  /// times (worker-owned). `recent` is a ring of the last E event times,
  /// E = the shard's escalation share: when all E land inside one
  /// detection window, the shard's local count alone proves the key could
  /// be inside a globally over-threshold window, and the key turns hot.
  struct AggSketch {
    std::vector<int64_t> recent;
    size_t next = 0;
    bool hot = false;
    int64_t last_event_ns = 0;
  };

  /// Worker-owned aggregate staging state. The coordinator may read it
  /// only behind a Flush() barrier (TrackedState/MemoryBytes).
  struct AggLocal {
    std::vector<HeldAggEvent> buf;  // time-ordered; [begin, end) live
    size_t begin = 0;
    size_t end = 0;
    StringKeyed<AggSketch> invite_sketch;
    StringKeyed<AggSketch> drdos_sketch;
    /// Keys currently hot on this shard. While nonzero the whole buffer is
    /// shipped at every batch end, so hot-key replay tracks the packet
    /// frontier instead of lagging by agg_hold.
    size_t hot_keys = 0;
    uint64_t events_buffered = 0;  // total hook events staged
    uint64_t events_shipped = 0;   // total shipped upstream
    size_t live() const { return end - begin; }
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
    /// up-ring. Written (release) after the batch's ships are committed;
    /// the coordinator's replay gate is the min of these across shards.
    std::atomic<int64_t> agg_complete_ns{0};
    AggLocal agg;
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

  /// One forwarded aggregate-feed event, queued until the frontier passes.
  struct AggEvent {
    int64_t when_ns = 0;
    Vids::AggregateKind kind{};
    std::string key;
    std::string src_ip;
    std::string dst_ip;
    std::string peer;
    std::string ua;
    uint64_t aux = 0;
  };

  /// Coordinator-side replay of patterns.cpp's BuildWindowCounter (plus the
  /// Vids-level alert dedup): armed window, event count, lazy timer expiry.
  struct WinState {
    bool armed = false;
    int64_t count = 0;
    int64_t deadline_ns = 0;
    int64_t last_alert_ns = 0;
    bool alerted_once = false;
    int64_t last_event_ns = 0;
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
  /// Aggregate hook target (worker thread): stages the event in the
  /// shard-local buffer, updates the key's sliding sketch, and escalates
  /// the key to hot when the sketch crosses the shard's share.
  void BufferAggEvent(Shard& shard, Vids::AggregateKind kind,
                      std::string_view key, std::string_view src_ip,
                      std::string_view dst_ip, std::string_view peer,
                      std::string_view ua, uint64_t aux);
  /// Ships every held event with when_ns <= `horizon` upstream, in order,
  /// into the open up-batch (not yet committed). Updates agg bookkeeping;
  /// the caller publishes agg_complete_ns after committing.
  void ShipAggPrefix(Shard& shard, int64_t horizon);
  /// Drops sketch entries idle past the keyed horizon (worker thread;
  /// runs on kFlush so the maps stay bounded like the coordinator's).
  void PruneAggSketches(Shard& shard, int64_t now_ns);

  // ---- coordinator: routing ----
  /// Endpoint → shard: the owner map, hash fallback on miss.
  int RouteEndpoint(const net::Endpoint& endpoint, int64_t when_ns);
  int ShardOfCallId(std::string_view call_id) const;
  int HashShardOfEndpoint(uint64_t packed_key) const;
  /// Applies the SDP body's ownership claims to the owner map and pushes
  /// the resulting kRetractMedia messages.
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
  void ReplayOne(const AggEvent& event);
  /// Inserts into the retained history at its canonical position (see
  /// alerts()).
  void EmitAlert(Alert alert);
  void PruneCoordinator(int64_t now_ns);
  /// Re-broadcasts queued shard escalations (kAggHot) to every shard.
  /// Deferred out of the drain loop and guarded against re-entry:
  /// PushDown can call DrainUp while it waits out backpressure.
  void BroadcastHotKeys();
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

  StringKeyed<WinState> invite_windows_;  // key = destination AOR
  StringKeyed<WinState> drdos_windows_;   // key = victim IP (dotted)
  /// Coordinator-side behavioral profiling engine (DESIGN.md §16). Fed
  /// exclusively from the frontier-gated aggregate replay, so it consumes
  /// the identical globally time-ordered event stream the plain engine's
  /// inline instance sees — behavioral alerts are byte-identical across
  /// shard counts by construction. Swept by PruneCoordinator.
  behavior::BehaviorEngine behavior_;
  std::vector<std::deque<AggEvent>> pending_;  // per-shard, time-ordered

  /// Keys already broadcast hot, by kind → last escalation time. Dedups the
  /// broadcast (several shards may escalate one key); pruned with the
  /// window states once idle.
  StringKeyed<int64_t> hot_invite_;
  StringKeyed<int64_t> hot_drdos_;
  struct HotBroadcast {
    Vids::AggregateKind agg{};
    std::string key;
    int64_t when_ns = 0;
  };
  /// Escalations collected during DrainUp, broadcast after the drain (a
  /// broadcast can hit backpressure, which re-enters DrainUp).
  std::vector<HotBroadcast> hot_pending_;
  bool broadcasting_ = false;
  /// True once Stop() started: no more broadcasts (a worker past its
  /// kStop never drains them, so a full ring would wait forever).
  bool stopping_ = false;

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

  /// Per-shard escalation shares: ceil(fraction * (threshold + 1) / shards)
  /// local events inside one window turn a key hot. Computed once in the
  /// constructor.
  int64_t esc_invite_share_ = 1;
  int64_t esc_drdos_share_ = 1;

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
  obs::Counter* m_coord_alerts_;
  obs::Counter* m_coord_suppressed_;
  obs::Counter* m_flushes_;
  obs::Counter* m_escalations_;
  obs::Counter* m_watchdog_stalls_;
  obs::Counter* m_flush_full_;
  obs::Counter* m_flush_deadline_;
  obs::Counter* m_flush_barrier_;
  /// Size of every published nonzero down batch.
  obs::Histogram* m_batch_committed_;
};

}  // namespace vids::ids
