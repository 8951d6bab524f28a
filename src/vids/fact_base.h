// Call State Fact Base (paper Fig. 3).
//
// Stores "the control state and its state variables and keeps track of the
// progress of state machines for each ongoing call": one MachineGroup per
// call (SIP spec + RTP spec + per-call attack patterns, δ channel routed),
// plus keyed groups for the per-destination patterns (INVITE flood per
// callee AOR, media spam / RTP flood per media endpoint, DRDoS per victim
// host). It owns the lifecycle: completed calls are deleted (with a
// tombstone against late retransmissions) and idle state is reclaimed on a
// sweep that runs both from the packet path and from a periodic scheduler
// event armed while any tracked state exists — idle tail state dies even
// when traffic stops entirely. It also maintains the media-endpoint → call
// index that lets the Event Distributor hand RTP packets to the right call
// group.
//
// Reclamation runs on a timing wheel of sweep-interval slots (DESIGN.md §9,
// reclaim_wheel.h), so a sweep touches only the entries that are due, never
// the whole table:
//   - every call, keyed group and tombstone files one record when it is
//     created, in O(1): idle entries under last_event + timeout, re-checked
//     lazily when the record comes due, so the packet path keeps its single
//     last_event store and a touched entry moves to its new slot with one
//     append;
//   - a call can only complete when its SIP or RTP machine retires, so the
//     call groups report retirements to the fact base, which checks just
//     those calls at the next sweep;
//   - a reclaimed call leaves its entry behind as the tombstone (no group,
//     an expiry), so reclaiming it neither erases nor inserts an entry.
//
// The four tables — calls, string-keyed groups, binary-keyed groups and the
// media index — are flat (flat_index.h): entries live in slabs behind an
// open-addressing index of full key hashes, and everything that refers to an
// entry holds its slab index: the wheel's records, the completion
// candidates, a call group's owner index and a media-index entry's owning
// call. A sweep therefore reclaims by index: it never hashes a key,
// compares a string or frees a table entry, and an erased entry keeps its
// key string's and media list's capacity for the next one. Media endpoints
// and DRDoS victims are keyed by packed 48-bit endpoint / 32-bit IP values
// (no ToString()), and every call entry lists the media-index entries it
// made, so a reclaimed call erases exactly those instead of scanning.
//
// Groups are recycled records (DESIGN.md §7): each group kind has one
// efsm::GroupShape and a free list. Reclaiming a group cancels its timers
// and parks it; creating one pops a parked group and resets it, so churn
// stops paying for building and freeing machines. A shape also holds its
// groups' shared parts: the δ queue and the pool of flight-ring chunks,
// which a group gives back when it is reset. Each sweep trims every free
// list to the groups that sweep reclaimed and every pool to the chunks
// those groups hold, and a drained fact base frees them, the pools, the
// queues and the tables.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "efsm/engine.h"
#include "net/address.h"
#include "vids/config.h"
#include "vids/flat_index.h"
#include "vids/patterns.h"
#include "vids/reclaim_wheel.h"
#include "vids/spec_machines.h"

namespace vids::ids {

/// Machine indexes of each group shape, in the order the fact base builds
/// them (and delivers a packet to them). The Event Distributor addresses
/// machines by these, never by instance name.
enum CallMachine : size_t { kCallSip, kCallRtp, kCallCancelDos, kCallHijack };
enum MediaMachine : size_t { kMediaSpam, kMediaRtpFlood, kMediaRtcpBye };
inline constexpr size_t kInviteFloodMachine = 0;
inline constexpr size_t kDrdosMachine = 0;

/// Flight-record `aux` encoding used by the fact base's kFactAssert /
/// kFactRetract records: family tag in the top byte, packed payload below
/// (media-endpoint key for the media tags, nothing for call lifecycle).
struct FactAux {
  static constexpr uint64_t kCallCreated = uint64_t{1} << 56;
  static constexpr uint64_t kMediaIndexed = uint64_t{2} << 56;
  static constexpr uint64_t kMediaRetracted = uint64_t{3} << 56;
  static constexpr uint64_t kTagMask = uint64_t{0xFF} << 56;
};

class CallStateFactBase : private efsm::RetirementListener {
 public:
  /// `registry`, when non-null, receives the fact-base gauges/counters and
  /// the shared engine metrics every machine group of this fact base
  /// updates. Null keeps all instrumentation pointed at the null sinks.
  CallStateFactBase(sim::Scheduler& scheduler, const DetectionConfig& config,
                    efsm::Observer* observer,
                    obs::MetricsRegistry* registry = nullptr);
  /// Frees every live and parked group.
  ~CallStateFactBase() override;
  CallStateFactBase(const CallStateFactBase&) = delete;
  CallStateFactBase& operator=(const CallStateFactBase&) = delete;

  /// Renders a fact-base flight record (FactAux encoding) for provenance
  /// reports. Empty for records the fact base did not write.
  static std::string DecodeFactRecord(const obs::Record& record);

  /// The packet path's call lookup, one probe of the call table: nullptr
  /// when the call completed recently (a tombstone — its late
  /// retransmissions are dropped rather than treated as new, deviant
  /// calls), else the call's machine group, created on first sight (SIP +
  /// RTP spec machines, CANCEL-DoS and hijack patterns, δ channel).
  /// `created` reports whether this packet opened the call.
  efsm::MachineGroup* AdmitCall(std::string_view call_id, bool& created);
  /// Like AdmitCall, but a tombstoned Call-ID opens a new call too.
  efsm::MachineGroup& GetOrCreateCall(std::string_view call_id,
                                      bool& created);
  efsm::MachineGroup* FindCall(std::string_view call_id);

  /// Per-destination pattern groups, created on first use. The INVITE
  /// flood group of callee AOR `aor` runs once per INVITE request, so its
  /// "flood|" prefixed key is composed in a reused scratch string — the hit
  /// path performs no allocation.
  efsm::MachineGroup& GetOrCreateInviteFlood(std::string_view aor);
  /// The media spam, RTP flood and RTCP BYE group of a media endpoint, and
  /// the DRDoS group of a victim IP: binary-keyed, no string formatting or
  /// parsing on a hit.
  efsm::MachineGroup& GetOrCreateMediaGroup(const net::Endpoint& endpoint);
  efsm::MachineGroup& GetOrCreateDrdosGroup(net::IpAddress victim);

  /// True if the call completed recently; its late retransmissions are
  /// dropped rather than treated as new (deviant) calls.
  bool IsTombstoned(std::string_view call_id) const;

  /// Media-endpoint index: negotiated RTP destinations → owning call. An
  /// endpoint is only ever indexed to a live call: naming a Call-ID that
  /// does not exist or is a tombstone changes nothing.
  void IndexMedia(const net::Endpoint& endpoint, std::string_view call_id);
  /// Same, for a live call group of this fact base (no Call-ID lookup).
  void IndexMedia(const net::Endpoint& endpoint,
                  const efsm::MachineGroup& call);
  /// Drops the endpoint's index entry, stamping a retraction record into the
  /// owning call's flight log. Used by the sharded engine when an SDP
  /// re-negotiation moves the endpoint to a call owned by a different shard
  /// — this shard must stop claiming the media stream. No-op when unknown.
  void RetractMedia(const net::Endpoint& endpoint);
  /// Drops the endpoint's per-endpoint keyed pattern group (media-spam /
  /// RTP-flood / RTCP-BYE counters), as if the group had just been swept.
  /// Used by the sharded engine when media ownership of the endpoint moves
  /// to another shard: the loser's partial counts must die
  /// deterministically rather than linger until the idle sweep and split
  /// the stream's counting. A group made here later gets a new serial, so
  /// the dropped group's alert-dedup signatures cannot suppress its alerts
  /// and need no eviction. No-op when absent.
  void DropMediaKeyedGroup(const net::Endpoint& endpoint);
  std::optional<std::string> CallByMedia(const net::Endpoint& endpoint) const;
  /// Zero-copy variant: the indexed call's group, or nullptr when the
  /// endpoint is unknown or its call no longer exists.
  efsm::MachineGroup* FindGroupByMedia(const net::Endpoint& endpoint) const;

  /// Reclaims completed calls and idle groups, at most once per
  /// `sweep_interval`; call it from the packet path. Also fired by the
  /// periodic sweep event (armed on state creation) so reclamation does not
  /// depend on the next packet arriving. A sweep reclaims a call when
  /// CallComplete holds or `now - last_event > call_idle_timeout`, a keyed
  /// group when `now - last_event > keyed_idle_timeout`, and a tombstone
  /// when its expiry is `<= now`. It costs O(due): it examines the calls
  /// that retired a machine since the last sweep plus the wheel records due
  /// at `now` (counted in vids.sweep_examined).
  void Sweep(sim::Time now);

  /// Called at the end of every executed sweep with the groups it reclaimed
  /// (possibly none). They are parked but not yet reset, so their names are
  /// still the call ids and keyed-group names they had. The analysis engine
  /// uses it as the time-driven reclaim tick of its own tables (alert
  /// signatures, behavior profiles), which expire by time alone and so
  /// ignore the groups. The span stays for the fact base's reference test,
  /// which checks each sweep's reclaimed set through it; filling it costs
  /// one push into a reused vector per reclaimed group. The listener
  /// returns whether its owner still holds such state: the periodic sweep
  /// keeps re-arming while that or the fact base's own state lasts.
  using SweepListener = std::function<bool(
      sim::Time now, std::span<const efsm::MachineGroup* const> reclaimed)>;
  void set_sweep_listener(SweepListener listener) {
    sweep_listener_ = std::move(listener);
  }
  /// The listener's owner created state its listener reclaims: arms the
  /// periodic sweep, which then re-arms until the listener reports that
  /// state gone. Cheap enough for the packet path; schedules nothing while
  /// the sweep is pending.
  void KeepSweepArmed() {
    listener_holds_state_ = true;
    ArmSweepTimer();
  }

  size_t call_count() const { return calls_.size() - tombstones_; }
  size_t keyed_count() const { return keyed_str_.size() + keyed_bin_.size(); }
  size_t tombstone_count() const { return tombstones_; }
  size_t media_index_count() const { return media_index_.size(); }
  uint64_t calls_created() const { return calls_created_; }
  uint64_t calls_deleted() const { return calls_deleted_; }

  /// Total footprint of all tracked state, the tables (erased entries'
  /// key and media-list capacity included), the reclamation index, the
  /// parked groups and the shapes' shared parts (the chunk pools' free
  /// chunks and the δ queues) — the §7.3 memory metric. Once a sweep finds
  /// nothing left to track it frees the tables, the index, every free list
  /// and the shared parts, so a drained fact base is back at its freshly
  /// built footprint.
  size_t MemoryBytes() const;
  /// The part of MemoryBytes() held by reclaimed groups parked on the free
  /// lists — reusable capacity, not state of any tracked call.
  size_t FreeListBytes() const;
  /// Parked groups over all shapes.
  size_t free_group_count() const;
  /// Footprint of one call's group, if it exists.
  std::optional<size_t> CallMemoryBytes(std::string_view call_id) const;

  const DetectionConfig& config() const { return config_; }

 private:
  /// One group kind: its shape and the reclaimed groups parked for reuse.
  /// Parked groups are owned here; a live group is owned by its entry.
  struct Recycler {
    efsm::GroupShape shape;
    std::vector<efsm::MachineGroup*> free;  // newest last; popped first
    size_t swept = 0;  // groups the running sweep reclaimed into `free`
    size_t swept_chunks = 0;  // flight-ring chunks those groups hold
  };

  // A calls_ entry. A live call owns `group`; an entry without a group is
  // a tombstone: the call completed, and its late retransmissions are
  // dropped until `tombstone_expiry`.
  struct CallEntry {
    std::string call_id;
    uint64_t hash = 0;  // StringHash of call_id
    efsm::MachineGroup* group = nullptr;
    sim::Time last_event;
    sim::Time tombstone_expiry;
    // Reverse index: the media_index_ entries this call indexed, so
    // deletion cleans media_index_ without a scan. An entry that has since
    // moved to another call, or been erased and reused, no longer names
    // this call and is left alone.
    std::vector<uint32_t> media;
    uint32_t next_free = kNoEntry;
    bool completion_candidate = false;  // queued in completion_candidates_
    // A kCallIdle / kTombstoneDue record for this entry is in the wheel.
    // It may be stale (the call completed, the tombstone reopened, the
    // entry was erased); a call or tombstone made here while one is
    // pending adopts it, since it is due no later than the new deadline.
    bool idle_filed = false;
    bool tombstone_filed = false;
  };
  // A keyed_str_ (Key = name) or keyed_bin_ (Key = packed key) entry.
  template <typename Key>
  struct KeyedEntry {
    Key key{};
    uint64_t hash = 0;
    efsm::MachineGroup* group = nullptr;  // owned
    sim::Time last_event;
    uint32_t next_free = kNoEntry;
    bool idle_filed = false;  // as CallEntry::idle_filed
  };
  struct MediaEntry {
    uint64_t key = 0;  // packed endpoint
    uint64_t hash = 0;
    uint32_t call = kNoEntry;  // owning (live) calls_ entry
    uint32_t next_free = kNoEntry;
  };
  using CallTable = FlatTable<CallEntry>;
  using NamedTable = FlatTable<KeyedEntry<std::string>>;
  using BinaryTable = FlatTable<KeyedEntry<uint64_t>>;

  // The tables that file into the wheel, as its record tags.
  enum DueTable : uint32_t {
    kCallIdle,
    kFloodIdle,
    kBinaryIdle,
    kTombstoneDue,
    kDueTables
  };

  /// A call is over when its SIP machine retired and its RTP machine either
  /// retired or never left INIT (non-call transactions like REGISTER).
  bool CallComplete(const efsm::MachineGroup& group) const;

  /// Queues the call whose SIP or RTP machine just retired for a
  /// CallComplete check at the next sweep, if the call is complete now.
  /// Those retirements are the only transitions that can make CallComplete
  /// true: retirement is permanent and no rtp-spec transition re-enters
  /// INIT (vids_machines_test holds the definition to that). So a call that
  /// is not complete here cannot be complete before its next retirement.
  void OnMachineRetired(const efsm::MachineInstance& machine) override;

  /// Files the idle record of `entry` (slab index `index`, just touched)
  /// unless one is pending.
  template <typename Entry>
  void FileIdle(Entry& entry, uint32_t index, DueTable tag,
                sim::Duration timeout);
  /// Settles the due idle records of `table` (tag `tag`): drops the stale
  /// ones (the entry died or became a tombstone), hands each entry idle
  /// for longer than `timeout` to `reclaim`, and re-files the ones touched
  /// since they were filed under their refreshed due instant.
  template <typename Table, typename Reclaim>
  void DrainIdle(Table& table, DueTable tag, sim::Duration timeout,
                 sim::Time now, Reclaim reclaim);

  /// The calls_ entry of `call_id` (live or tombstone), or kNoEntry.
  uint32_t FindCallEntry(std::string_view call_id, uint64_t hash) const;
  /// Opens a call in entry `index` (new, or a tombstone being reused).
  efsm::MachineGroup& OpenCall(uint32_t index);
  /// The binary-keyed group under `key`; `name` composes its group name on
  /// creation.
  template <typename Name>
  efsm::MachineGroup& GetOrCreateBinary(Recycler& recycler, uint64_t key,
                                        Name name);
  /// Points the media entry of packed endpoint `key` at calls_ entry
  /// `call`, which must be live or kNoEntry (no call: changes nothing).
  void IndexMediaTo(uint64_t key, uint32_t call);
  /// The media_index_ entry of packed endpoint `key`, or kNoEntry.
  uint32_t FindMedia(uint64_t key) const;
  /// Erases media entry `index`. Reverse lists that hold the index keep it;
  /// the entry no longer names their call.
  void EraseMedia(uint32_t index);

  /// A group of `recycler`'s shape named `name`: a parked one reset, or a
  /// new one when the free list is empty. Either way it gets the next
  /// serial, so no two uses of a group share one.
  efsm::MachineGroup* AcquireGroup(Recycler& recycler, std::string_view name);
  /// Parks a group its entry let go of: cancels its timers and pushes it on
  /// its shape's free list. Reset waits for reuse.
  void ReleaseGroup(efsm::MachineGroup* group, bool in_sweep);
  Recycler& RecyclerOf(const efsm::MachineGroup& group);

  /// Deletes a call: its entry becomes the tombstone (filed unless a
  /// tombstone record is pending), its media-index entries go, its group is
  /// parked.
  void ReclaimCall(uint32_t index, sim::Time now);

  /// Frees the tables, the wheel and every parked group; only when the
  /// tables are empty.
  void ReleaseDrainedStorage();

  void UpdateGauges();

  /// True while any table holds reclaimable state — the periodic sweep event
  /// keeps re-arming as long as this or listener_holds_state_ holds.
  bool HasTrackedState() const {
    return !calls_.empty() || !keyed_str_.empty() || !keyed_bin_.empty() ||
           !media_index_.empty();
  }

  /// Arms the periodic sweep event if it is not already pending. Called on
  /// state creation only (here and through KeepSweepArmed), so the
  /// steady-state packet path never schedules.
  void ArmSweepTimer();

  sim::Scheduler& scheduler_;
  DetectionConfig config_;
  efsm::Observer* observer_;

  // Shared metric slots: one EngineMetrics copy source for every group,
  // plus the fact base's own lifecycle/sweep instrumentation.
  efsm::EngineMetrics engine_metrics_;
  obs::Counter* m_calls_created_ = &obs::NullCounter();
  obs::Counter* m_calls_deleted_ = &obs::NullCounter();
  obs::Counter* m_sweeps_ = &obs::NullCounter();
  obs::Counter* m_sweep_examined_ = &obs::NullCounter();
  obs::Histogram* m_sweep_ns_ = &obs::NullHistogram();
  obs::Gauge* m_active_calls_ = &obs::NullGauge();
  obs::Gauge* m_keyed_groups_ = &obs::NullGauge();
  obs::Gauge* m_media_index_ = &obs::NullGauge();
  obs::Gauge* m_tombstones_ = &obs::NullGauge();

  // Shared machine definitions, instantiated per call / per key.
  efsm::MachineDef sip_spec_;
  efsm::MachineDef rtp_spec_;
  AttackScenarioBase scenarios_;

  // One recycler per group kind. A sweep trims each free list to the groups
  // that sweep reclaimed: at a steady call rate that is what the next
  // interval admits, so churn reuses every parked group, while a burst
  // that stops leaves at most one sweep's worth parked — and an INVITE
  // flood cannot pin more than the state it already had. It trims each
  // shape's chunk pool the same way, to as many free chunks as the groups
  // it reclaimed hold.
  Recycler call_groups_;
  Recycler media_groups_;
  Recycler flood_groups_;
  Recycler drdos_groups_;
  // The groups the running sweep reclaimed, for the sweep listener.
  std::vector<const efsm::MachineGroup*> swept_groups_;

  CallTable calls_;
  NamedTable keyed_str_;  // INVITE flood, name-prefixed "flood|"
  // Reused to compose keyed-group names: the INVITE-flood key, and the
  // media / DRDoS group names.
  std::string key_scratch_;
  // Media-endpoint and DRDoS groups, keyed by kind-tagged packed binary key.
  BinaryTable keyed_bin_;
  size_t tombstones_ = 0;  // calls_ entries that are tombstones
  FlatTable<MediaEntry> media_index_;

  // Reclamation index: the wheel, where every live entry has exactly one
  // record of its kind pending (plus stale records of entries that died
  // early), the calls that retired a machine since the last sweep, and the
  // running sweep's due records, by tag.
  ReclaimWheel wheel_;
  std::vector<uint32_t> completion_candidates_;
  std::array<std::vector<uint32_t>, kDueTables> due_;
  sim::Time next_sweep_;
  sim::Scheduler::EventId sweep_event_;
  SweepListener sweep_listener_;
  bool listener_holds_state_ = false;  // the listener's last answer
  uint64_t calls_created_ = 0;
  uint64_t calls_deleted_ = 0;
  uint64_t last_serial_ = 0;  // the serial AcquireGroup stamped last
};

}  // namespace vids::ids
