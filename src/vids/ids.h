// vIDS — the VoIP intrusion detection system (paper Fig. 3).
//
// Composition of the architecture's components:
//   Packet Classifier      → classifier.h       (packets → typed events)
//   Event Distributor      → Vids::Inspect      (events → machine groups)
//   Call State Fact Base   → fact_base.h        (per-call/per-key groups)
//   Attack Scenario base   → patterns.h         (known-attack EFSMs)
//   Analysis Engine        → Vids's Observer implementation (alerts)
//
// Deployment: construct a Vids, then install MakeInspector() on the
// net::InlineTap sitting between the edge router and the protected network.
// Detection is passive — vIDS raises alerts and notifies administrators; it
// never drops traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/inline_tap.h"
#include "vids/alert.h"
#include "vids/behavior/behavior.h"
#include "vids/classifier.h"
#include "vids/config.h"
#include "vids/fact_base.h"

namespace vids::ids {

class Vids : public efsm::Observer {
 public:
  /// Snapshot of the IDS's own counters (all live in metrics(); this struct
  /// is the stable convenience view).
  struct Stats {
    uint64_t packets = 0;
    uint64_t sip_packets = 0;
    uint64_t rtp_packets = 0;
    uint64_t rtcp_packets = 0;
    uint64_t unknown_packets = 0;
    uint64_t orphan_rtp = 0;   // media matching no monitored call
    uint64_t transitions = 0;  // EFSM transitions executed
    uint64_t alerts_suppressed = 0;  // deduplicated repeats
  };

  Vids(sim::Scheduler& scheduler, DetectionConfig detection = {},
       CostModel cost = {});

  /// Analyzes one packet; returns the tap verdict: the simulated CPU cost
  /// to charge and its lane (SIP analysis on the signaling lane, everything
  /// else on the media lane, priced by CostModel). This is the Event
  /// Distributor: it classifies, routes events to the fact base's machine
  /// groups, feeds the per-destination patterns and maintains the
  /// media-endpoint index.
  net::InlineTap::Verdict Inspect(const net::Datagram& dgram,
                                  bool from_outside);

  /// Adapter for net::InlineTap.
  net::InlineTap::Inspector MakeInspector() {
    return [this](const net::Datagram& dgram, bool from_outside) {
      return Inspect(dgram, from_outside);
    };
  }

  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Alerts of a given kind / classification.
  size_t CountAlerts(AlertKind kind) const;
  size_t CountAlerts(std::string_view classification) const;
  /// Registers a callback invoked for every (non-suppressed) alert.
  void set_alert_callback(std::function<void(const Alert&)> cb) {
    alert_callback_ = std::move(cb);
  }
  /// Caps the retained alert history (0 = unlimited, the default). Long
  /// soak deployments set a cap and consume alerts via the callback; when
  /// the cap is exceeded the oldest half of the history is dropped, so the
  /// alert log cannot grow without bound. CountAlerts() then counts only
  /// the retained tail.
  void set_max_retained_alerts(size_t max) { max_retained_alerts_ = max; }

  /// Live alert-dedup signatures (also exported as the "vids.alert_sigs"
  /// gauge). Bounded: each expires alert_dedup_window after the last alert
  /// it let through.
  size_t alert_sig_count() const { return sigs_.size(); }
  /// Footprint of the dedup table: its slab, index and expiry wheel.
  size_t AlertSigBytes() const;

  /// Optional trace of every EFSM transition (group, machine, label) — the
  /// live view of the state-transition analysis; used by the examples.
  using TransitionTrace = std::function<void(
      const efsm::MachineInstance&, const efsm::Transition&)>;
  void set_transition_trace(TransitionTrace trace) {
    transition_trace_ = std::move(trace);
  }

  /// Cross-call aggregate feeds: the detectors whose counting key spans
  /// calls and therefore spans shards in the sharded engine — the DRDoS /
  /// INVITE-flood window counters and the entity-keyed behavior profiles
  /// (a caller's calls scatter across shards with their Call-ID hashes).
  enum class AggregateKind : uint8_t {
    kUnsolicitedResponse,  // DRDoS reflection, keyed by victim (dst) IP
    kInviteRequest,        // INVITE flood, keyed by destination AOR
    kBehaviorCallStart,    // initial INVITE, keyed by caller AOR (From)
    kBehaviorCallEnd,      // BYE request, keyed by caller AOR (From)
    kBehaviorRegFailure,   // REGISTER 401/403/407, keyed by target AOR (To)
    kBehaviorRegSuccess,   // REGISTER 2xx, keyed by target AOR (To)
  };
  /// One aggregate-feed event, filled once per qualifying packet. The views
  /// borrow the classified packet's scratch (or a caller's buffers) and are
  /// valid only for the duration of the call that receives the event.
  struct AggregateEvent {
    AggregateKind kind{};
    /// Dest AOR (kInviteRequest), dotted victim IP — packet.dst.ip, always
    /// present — (kUnsolicitedResponse), profiled entity AOR (behavior).
    std::string_view key{};
    net::IpAddress src_ip{};  // the packet's addresses, for the alert detail
    net::IpAddress dst_ip{};
    std::string_view peer{};  // kBehaviorCallStart: destination AOR
    std::string_view ua{};    // kBehaviorCallStart: User-Agent header
    /// Call-key hash (call start/end, BYE↔INVITE pairing) or the
    /// registering client's IP bits (kBehaviorRegFailure).
    uint64_t aux = 0;
  };
  /// Runs one aggregate event at scheduler time Now(): INVITE and
  /// unsolicited-response events drive the fact base's `invite-flood` /
  /// `drdos` EFSM groups, the behavior kinds the behavior engine. Inspect
  /// calls it inline; the sharded coordinator calls it on its own Vids to
  /// replay the merged event stream of every shard.
  void FeedAggregate(const AggregateEvent& event);
  /// When an aggregate hook is installed FeedAggregate is NOT called; the
  /// hook receives every event instead. ShardedIds installs one on every
  /// shard and replays the events into a coordinator-owned Vids, so the
  /// aggregate detectors see the global event stream regardless of how
  /// calls are partitioned. All other detection (per-call, per-media-
  /// endpoint) is untouched.
  using AggregateHook = std::function<void(const AggregateEvent&)>;
  void set_aggregate_hook(AggregateHook hook) {
    aggregate_hook_ = std::move(hook);
  }

  Stats stats() const;
  CallStateFactBase& fact_base() { return fact_base_; }
  const CallStateFactBase& fact_base() const { return fact_base_; }
  const DetectionConfig& detection() const { return detection_; }
  /// The behavioral anomaly layer (DESIGN.md §16). Fed through
  /// FeedAggregate unless an aggregate hook forwards the events upstream;
  /// swept on the fact base's sweep cadence.
  behavior::BehaviorEngine& behavior() { return behavior_; }
  const behavior::BehaviorEngine& behavior() const { return behavior_; }

  /// The IDS's own metrics registry: "vids.*" event-distributor and fact
  /// base counters, "efsm.*" engine counters, lazily-created per-
  /// classification "alerts.*" counters. Everything here is derived from
  /// the inspected packet stream, so an offline replay of a capture
  /// reproduces the counter values exactly (the wall-clock histograms are
  /// the one exception — exclude them when comparing snapshots).
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  // --- efsm::Observer (the Analysis Engine) ---
  void OnTransition(const efsm::MachineInstance&, const efsm::Transition&,
                    const efsm::Event&) override;
  void OnAttackState(const efsm::MachineInstance&, efsm::StateId,
                     const efsm::Event&) override;
  void OnDeviation(const efsm::MachineInstance&, const efsm::Event&) override;
  void OnNondeterminism(const efsm::MachineInstance&, const efsm::Event&,
                        size_t enabled_count) override;

 private:
  void HandleSip(const ClassifiedPacket& packet);
  /// Fills the packet's behavior-profile event (call start/end, REGISTER
  /// finals), if any, and hands it to EmitAggregate.
  void FeedBehavior(const ClassifiedPacket& packet, bool is_response);
  /// Hands the event to the aggregate hook if one is installed, else to
  /// FeedAggregate.
  void EmitAggregate(const AggregateEvent& event);
  void HandleRtp(const ClassifiedPacket& packet);
  void HandleRtcp(const ClassifiedPacket& packet);
  void RefreshMediaIndex(efsm::MachineGroup& group);

  /// Who raised an alert, as its dedup signature: the raising group's
  /// serial and the machine's index in it (or, for the classifier's alerts,
  /// kClassifierOrigin over an unparsable packet's packed destination
  /// endpoint), and the interned classification. Holds no string, so a
  /// probe allocates nothing, and no later group can match a dead group's
  /// signature: serials are never reused.
  struct AlertKey {
    uint64_t origin = 0;
    uint32_t machine = 0;
    uint32_t classification = 0;
    friend bool operator==(const AlertKey&, const AlertKey&) = default;
  };
  /// Above every group serial.
  static constexpr uint64_t kClassifierOrigin = uint64_t{1} << 63;
  static AlertKey KeyOf(const efsm::MachineInstance& machine,
                        std::string_view classification);
  /// The dedup decision for an alert under `key` at `now`: false, counting
  /// the suppression, when one was let through within alert_dedup_window;
  /// else true, stamping the signature (filed if new). Attack self-loops
  /// call it per packet before any alert string exists, so the suppressed
  /// path is one probe and allocates nothing.
  bool AdmitAlert(const AlertKey& key, sim::Time now);
  /// Emits an alert: counters, log, callback and the retained history.
  /// Behavior alerts come here directly: the engine's cooldown is at least
  /// the dedup window, so the table would never suppress one.
  void RaiseAlert(Alert alert);
  /// Human classification of a specification deviation from its context.
  /// Returns a literal for the common cases (so the suppression pre-check
  /// stays allocation-free); composed descriptions are built in `scratch`.
  static std::string_view DescribeDeviation(
      const efsm::MachineInstance& machine, const efsm::Event& event,
      std::string& scratch);

  /// Builds the trigger + provenance view for an alert raised by `machine`'s
  /// group and stamps a kAlert record into the group's flight recorder.
  void AttachProvenance(Alert& alert, const efsm::MachineInstance& machine);

  /// Sweep-driven upkeep of the dedup table: erases the signatures whose
  /// window has passed at `now`, examining only those the wheel holds due,
  /// so the table stays bounded by the alert rate of the last window. A
  /// signature of a group that is gone lives out its window unmatched.
  void ExpireAlertSigs(sim::Time now);

  sim::Scheduler& scheduler_;
  DetectionConfig detection_;
  CostModel cost_;
  PacketClassifier classifier_;
  // Declared before fact_base_: the fact base registers its metrics here.
  obs::MetricsRegistry registry_;
  CallStateFactBase fact_base_;
  behavior::BehaviorEngine behavior_;
  // Cached slots into registry_ — hot-path updates are plain increments.
  obs::Counter* m_packets_;
  obs::Counter* m_sip_packets_;
  obs::Counter* m_rtp_packets_;
  obs::Counter* m_rtcp_packets_;
  obs::Counter* m_unknown_packets_;
  obs::Counter* m_orphan_rtp_;
  obs::Counter* m_transitions_;
  obs::Counter* m_alerts_;
  obs::Counter* m_alerts_suppressed_;
  obs::Gauge* m_alert_sigs_;
  obs::Gauge* m_behavior_profiles_;
  // The transition that fired most recently — the engine reports
  // OnTransition immediately before OnAttackState, so this names an
  // attack alert's trigger without any allocation on the transition path.
  const efsm::Transition* last_transition_ = nullptr;
  const efsm::MachineInstance* last_transition_machine_ = nullptr;
  std::vector<Alert> alerts_;
  size_t max_retained_alerts_ = 0;  // 0 = keep everything
  std::function<void(const Alert&)> alert_callback_;
  TransitionTrace transition_trace_;
  AggregateHook aggregate_hook_;
  /// FeedAggregate's reused EFSM event for the window counters: carries
  /// only the source/destination IP args their alert detail reads.
  efsm::Event aggregate_scratch_;
  /// Dedup: the last alert let through per AlertKey, in a recycled flat
  /// table. Each live signature has one record in sig_wheel_, due when its
  /// window ends; ExpireAlertSigs erases it then or, if an alert restamped
  /// it since, moves the record to the new end.
  struct SigEntry {
    AlertKey key;
    uint64_t hash = 0;
    sim::Time last;
    uint32_t next_free = kNoEntry;
  };
  FlatTable<SigEntry> sigs_;
  ReclaimWheel sig_wheel_;
  std::vector<uint32_t> sig_due_;  // the running expiry's due signatures
};

}  // namespace vids::ids
