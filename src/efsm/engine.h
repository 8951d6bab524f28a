// EFSM runtime: instances, communicating groups, sync channels, timers.
//
// One MachineGroup exists per monitored call (paper §5: "only one instance
// of a protocol state machine is maintained ... per call"). The group owns
// the shared global variable store and delivers events with the paper's
// priority rule: the synchronization events a delivery emits on the FIFO
// channels between machines (Fig. 2(b)) are processed before any further
// data event.
//
// A call is a *configuration* of shared machines (§5, §7.3), so a group is
// a fixed-shape record: a GroupShape, compiled once per group kind, fixes
// the definitions, instance names, machine order and channel routes, and
// every group of that kind is built from it. Machines, channels and timers
// are then addressed by index — machine i of the shape, channel id c, timer
// id t of machine i's definition — and a group can be reclaimed and reset
// for a new owner without rebuilding anything (DESIGN.md §7). What a group
// needs only while it delivers or records lives in the shape and is shared
// by the shape's groups: the δ queue, which is empty between deliveries,
// the pool its flight ring takes chunks from, and the number of global
// variables its groups have needed so far.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "efsm/machine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace vids::efsm {

class MachineInstance;
class MachineGroup;

namespace detail {

/// A run of elements whose count is fixed when it is built: stored inside
/// the owning object when there are at most N (every shape the fact base
/// builds fits), in one heap block otherwise. Never copied or moved, so
/// elements may point at each other and at the owner.
template <typename T, size_t N>
class InlineArray {
 public:
  InlineArray() = default;
  InlineArray(const InlineArray&) = delete;
  InlineArray& operator=(const InlineArray&) = delete;
  ~InlineArray() {
    for (size_t i = size_; i > 0; --i) data_[i - 1].~T();
    if (data_ != Inline()) ::operator delete(data_);
  }

  /// Constructs `count` elements, element i from make(i). Called once.
  template <typename Make>
  void Build(size_t count, Make make) {
    if (count > N) data_ = static_cast<T*>(::operator new(count * sizeof(T)));
    for (; size_ < count; ++size_) new (data_ + size_) T(make(size_));
  }

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  /// Heap bytes beyond the owning object (0 when stored inline).
  size_t HeapBytes() const {
    return data_ == Inline() ? 0 : size_ * sizeof(T);
  }

 private:
  T* Inline() { return reinterpret_cast<T*>(storage_); }
  const T* Inline() const { return reinterpret_cast<const T*>(storage_); }

  alignas(T) std::byte storage_[N * sizeof(T)];
  T* data_ = Inline();
  size_t size_ = 0;
};

}  // namespace detail

/// Preallocated metric slots for the engine, shared by every machine group
/// of one deployment (per-call metrics would explode the registry; the
/// interesting cardinality lives in the per-call flight recorders instead).
/// Defaults are the null sinks, so an unattached group pays one pointer
/// write per update and never branches. The per-transition latency
/// histogram is sampled 1-in-kLatencySamplePeriod so its two wall-clock
/// reads amortize to well under a nanosecond per delivery.
struct EngineMetrics {
  static constexpr uint32_t kLatencySamplePeriod = 64;

  obs::Counter* transitions = &obs::NullCounter();
  obs::Counter* deviations = &obs::NullCounter();  // out-of-spec hits
  obs::Counter* sync_sends = &obs::NullCounter();  // FIFO channel emits
  // Sync events past a delivery's kMaxSyncEvents, discarded.
  obs::Counter* sync_dropped = &obs::NullCounter();
  obs::Counter* nondeterminism = &obs::NullCounter();
  obs::Counter* retired = &obs::NullCounter();
  obs::Histogram* transition_ns = &obs::NullHistogram();
  uint32_t sample_tick = 0;  // per-group copy's own sampling phase

  /// Registers the slots under "efsm.*" in `registry`.
  static EngineMetrics Registered(obs::MetricsRegistry& registry);
};

/// Receives the analysis-relevant happenings. The vIDS Analysis Engine
/// implements this; tests use it to assert machine behavior.
class Observer {
 public:
  virtual ~Observer() = default;
  /// A transition fired.
  virtual void OnTransition(const MachineInstance&, const Transition&,
                            const Event&) {}
  /// A transition entered a state annotated kAttack.
  virtual void OnAttackState(const MachineInstance&, StateId,
                             const Event&) {}
  /// An in-alphabet event arrived with no enabled transition — a deviation
  /// from the protocol specification (only for machines that report them).
  virtual void OnDeviation(const MachineInstance&, const Event&) {}
  /// More than one predicate was enabled (`enabled_count` of them): the
  /// definition violates the mutual-disjointness condition of §4.1. First
  /// candidate wins.
  virtual void OnNondeterminism(const MachineInstance&, const Event&,
                                size_t /*enabled_count*/) {}
  /// The machine reached a kFinal state and retired.
  virtual void OnRetired(const MachineInstance&) {}
};

/// The group owner's lifecycle hook, separate from the Observer (which is
/// the analysis engine's view and may be null): the fact base installs one
/// on its call groups to learn which calls may have completed without
/// scanning them.
class RetirementListener {
 public:
  virtual ~RetirementListener() = default;
  /// `machine` reached a kFinal state; fired after Observer::OnRetired.
  virtual void OnMachineRetired(const MachineInstance& machine) = 0;
};

/// The fixed layout of one kind of machine group: which definitions run in
/// it, under which instance names, in which order, and where each sync
/// channel leads. Built once per group kind; every group of the kind is
/// built from it and refers to it, so the shape must outlive its groups.
/// A machine's index is its position in AddMachine order; a channel's id is
/// its position in channel-name order.
///
/// The shape also holds what its groups share at run time: the δ queue a
/// delivery's sync events wait in, the pool their flight rings take chunks
/// from, and the most global variables one group has held. Its groups and
/// the shape itself therefore belong to one thread (DESIGN.md §11).
class GroupShape {
 public:
  /// Adds an instance of `def` under `instance_name` and returns its
  /// index. The definition is shared, not copied — it must outlive every
  /// group of the shape (that is the paper's cost model: per-call state is
  /// a configuration, the machine itself exists once). The rvalue overload
  /// is deleted so a temporary definition cannot dangle.
  size_t AddMachine(const MachineDef& def, std::string instance_name);
  size_t AddMachine(MachineDef&& def, std::string instance_name) = delete;

  /// Routes the named channel (e.g. "SIP->RTP") to machine `dst`. Routing
  /// an already-routed channel re-points it.
  void RouteChannel(std::string channel, size_t dst);

  size_t size() const { return machines_.size(); }
  const MachineDef& def(size_t index) const { return *machines_[index].def; }
  const std::string& instance_name(size_t index) const {
    return machines_[index].name;
  }
  /// Index of the instance named `instance_name`, or npos. A string scan:
  /// for diagnostics and tests, not the packet path.
  size_t IndexOf(std::string_view instance_name) const;

  size_t channel_count() const { return channels_.size(); }
  const std::string& channel_name(size_t id) const {
    return channels_[id].name;
  }
  size_t channel_dst(size_t id) const { return channels_[id].dst; }
  /// Id of the channel named `channel`, or npos when it is unrouted.
  size_t ChannelId(std::string_view channel) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The most global variables one group of the shape has held: each group
  /// reserves that many slots in its global store before an action runs.
  size_t global_slots() const { return global_slots_; }
  const obs::FlightRecordPool& flight_pool() const { return flight_pool_; }
  /// The shared parts' bytes that no group counts: the pool's free chunks
  /// and bookkeeping (a group counts the chunks its ring holds) and the δ
  /// queue's buffer.
  size_t SharedBytes() const;
  /// Frees the pool's empty slabs while `keep` free chunks stay.
  void TrimFlightPool(size_t keep) { flight_pool_.Trim(keep); }
  /// Frees the pool and the δ queue's buffer. No group of the shape may
  /// hold a chunk.
  void ReleaseShared();

 private:
  friend class MachineGroup;
  friend class MachineInstance;

  struct Machine {
    const MachineDef* def;
    std::string name;
  };
  struct Channel {
    std::string name;
    size_t dst;
  };
  /// A queued sync event: the group whose delivery emitted it, the channel
  /// it travels on, the event.
  struct SyncEntry {
    MachineGroup* group;
    uint32_t channel;
    Event event;
  };
  std::vector<Machine> machines_;
  std::vector<Channel> channels_;  // sorted by name
  std::vector<SyncEntry> sync_queue_;
  obs::FlightRecordPool flight_pool_;
  uint32_t global_slots_ = 0;
};

class MachineInstance {
 public:
  enum class DeliverResult {
    kTransitioned,
    kNotInAlphabet,  // event name never appears in the definition: ignored
    kIgnored,        // timer event with no enabled transition: harmless
    kDeviation,      // data/sync event with no enabled transition
    kRetired,        // machine already reached a final state
  };

  /// Built only by MachineGroup (the key's constructor is private to it).
  class Key {
    friend class MachineGroup;
    Key() = default;
  };
  MachineInstance(Key, const MachineDef& def, MachineGroup& group,
                  uint8_t index, uint32_t timer_base);
  MachineInstance(const MachineInstance&) = delete;
  MachineInstance& operator=(const MachineInstance&) = delete;

  const MachineDef& def() const { return def_; }
  /// The instance name the group's shape gives this machine.
  const std::string& name() const;
  StateId state() const { return state_; }
  std::string_view StateName() const { return def_.StateName(state_); }
  bool retired() const { return retired_; }
  VariableStore& local() { return local_; }
  const VariableStore& local() const { return local_; }
  MachineGroup& group() { return group_; }
  const MachineGroup& group() const { return group_; }
  /// Position within the owning group's shape — the flight recorder's
  /// machine id.
  uint8_t index_in_group() const { return index_; }

  /// Approximate per-instance footprint (§7.3 memory accounting): the
  /// instance record plus its variable store's slots.
  size_t MemoryBytes() const;

 private:
  friend class MachineGroup;
  friend class Context;

  /// Delivers one event to this machine alone (MachineGroup::DeliverData
  /// is the way in); its sync events wait in the shape's queue for the
  /// running delivery to pump.
  DeliverResult Step(const Event& event);

  /// Back to the initial configuration: initial state, empty variable
  /// valuation. Variable-store capacity is retained — that is the point of
  /// recycling. Timers are the group's to cancel.
  void Reset();
  void CancelTimers();
  /// Runs timer `id`'s expiry: delivers the definition's prebuilt event.
  void OnTimer(TimerId id);

  // Context's action-side hooks.
  void EmitFrom(std::string_view channel, Event event);
  void StartTimer(std::string_view name, sim::Duration after);
  void CancelTimer(std::string_view name);
  sim::Time Now() const;

  const MachineDef& def_;
  MachineGroup& group_;
  StateId state_;
  bool retired_ = false;
  uint8_t index_;        // ring-record identity (kNoMachine past 254)
  uint32_t timer_base_;  // this machine's first slot in the group's timers
  VariableStore local_;
};

class MachineGroup {
 public:
  /// Builds a group of `shape` named `name`: one machine per shape entry in
  /// initial configuration. `shape` and `observer` (which may be null) must
  /// outlive the group, and the group runs on the shape's thread. `metrics`,
  /// when non-null, is copied — the shared slots it points at must outlive
  /// the group (in practice they live in a MetricsRegistry owned by the
  /// deployment that creates the groups).
  MachineGroup(GroupShape& shape, std::string name,
               sim::Scheduler& scheduler, Observer* observer,
               const EngineMetrics* metrics = nullptr);
  /// Cancels every pending timer.
  ~MachineGroup();
  MachineGroup(const MachineGroup&) = delete;
  MachineGroup& operator=(const MachineGroup&) = delete;

  /// Installs the owner's retirement hook (null removes it). It must
  /// outlive the group; Reset keeps it.
  void set_retirement_listener(RetirementListener* listener) {
    retirement_listener_ = listener;
  }
  /// An index the owner may hang on the group (the fact base keeps the slab
  /// index of the group's table entry here). Reset keeps it.
  void set_owner_index(uint32_t index) { owner_index_ = index; }
  uint32_t owner_index() const { return owner_index_; }

  /// Reclaim and reset split the recycling of a group between the moment
  /// its owner lets go of it and the moment a new owner takes it:
  ///  - Reclaim cancels every pending timer, so nothing fires into a group
  ///    no one owns. Nothing else changes; the group keeps its name, state
  ///    and flight ring until it is reset.
  ///  - Reset returns it to the configuration a freshly built group of its
  ///    shape has, under `name`: every machine in its initial state, every
  ///    variable valuation emptied, the flight ring forgotten and its chunks
  ///    back in the shape's pool. String and vector capacities survive, so
  ///    a recycled group skips the allocations of building one. It reclaims
  ///    first if needed. Not called while the group delivers.
  void Reclaim();
  void Reset(std::string_view name);

  /// Delivers a data event to `machine`, one of this group's, then the
  /// sync events the delivery emits, in emission order (so each channel is
  /// FIFO), until none is left: sync has priority over the next data event
  /// (§4.2). A delivery runs at most kMaxSyncEvents sync events, so a
  /// cyclic emit chain cannot livelock the IDS; the rest are discarded and
  /// counted in efsm.sync_dropped. Inside a delivery of the same group (an
  /// observer that delivers again), the event is delivered at once and its
  /// sync events join the running delivery's. Another group's delivery
  /// nested in this one sees only its own sync events. Returns what `event`
  /// did.
  MachineInstance::DeliverResult DeliverData(MachineInstance& machine,
                                             const Event& event);
  static constexpr size_t kMaxSyncEvents = 1000;

  const GroupShape& shape() const { return *shape_; }
  MachineInstance& machine(size_t index) { return machines_[index]; }
  const MachineInstance& machine(size_t index) const {
    return machines_[index];
  }
  std::span<MachineInstance> machines() {
    return {machines_.data(), machines_.size()};
  }
  std::span<const MachineInstance> machines() const {
    return {machines_.data(), machines_.size()};
  }
  /// The instance named `instance_name`, or nullptr (shape's IndexOf).
  MachineInstance* Find(std::string_view instance_name);

  const std::string& name() const { return name_; }
  /// An identity the owner stamps on each use of the group (the fact base
  /// hands out a fresh one whenever it acquires a group, new or recycled),
  /// so a reader can tell two uses apart without comparing names. 0 until
  /// stamped; Reset keeps it.
  void set_serial(uint64_t serial) { serial_ = serial; }
  uint64_t serial() const { return serial_; }
  sim::Scheduler& scheduler() { return scheduler_; }
  Observer* observer() { return observer_; }
  VariableStore& global() { return global_; }
  const VariableStore& global() const { return global_; }
  /// True when every machine reached a final state — the call completed and
  /// the fact base may delete this group (paper §5).
  bool AllRetired() const;
  /// Timers of this group still scheduled.
  size_t PendingTimers() const;
  /// The group object, its name, the slots of its variable stores and the
  /// flight-ring chunks it holds. The shape's shared parts are the shape's
  /// to count (GroupShape::SharedBytes).
  size_t MemoryBytes() const;

  /// The per-call flight recorder: the last FlightRecorder::kCapacity
  /// engine happenings of this call, in compact binary form, in chunks of
  /// the shape's pool. The analysis engine appends its own fact-base and
  /// alert records here too, so an alert's provenance is the tail of
  /// exactly one ring. Mutable through a const group: recording is an
  /// observability side effect, not a change of the group's logical state
  /// (observers hold const references).
  obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Decodes records the group itself cannot interpret (fact-base records
  /// with producer-tagged `aux` payloads). Returns empty to fall back to a
  /// generic rendering.
  using FactDecoder = std::function<std::string(const obs::Record&)>;

  /// Renders the newest `max` flight-recorder records, oldest first, one
  /// human-readable line each. This is the alert-provenance view; it
  /// allocates freely and must stay off the packet hot path.
  std::vector<std::string> ExplainFlight(
      size_t max = obs::FlightRecorder::kCapacity,
      const FactDecoder& fact_decoder = {}) const;

 private:
  friend class MachineInstance;
  void Enqueue(const MachineInstance& from, std::string_view channel,
               Event event);
  /// Delivers this group's sync events queued at `base` and after, in
  /// queue order, then drops them from the queue. Entries of an enclosing
  /// delivery's group, queued there by a delivery nested in this one, stay.
  void PumpSyncQueue(size_t base);

  // The record: machines and timer handles live in the group object itself
  // for every fact-base shape, so reclaiming, resetting or checking a group
  // touches one allocation; a sync event names its channel, whose
  // destination the shape keeps. The packet path and the sweep read the
  // first lines: the ring's head sits there, and its records are in chunks.
  GroupShape* shape_;
  uint64_t serial_ = 0;
  sim::Scheduler& scheduler_;
  Observer* observer_;
  RetirementListener* retirement_listener_ = nullptr;
  uint32_t owner_index_ = 0;
  bool pumping_ = false;  // a delivery of this group is running
  mutable obs::FlightRecorder recorder_;
  // One scheduler handle per (machine, timer id): machine i's timers sit at
  // [timer_base, timer_base + def.timer_count()). Kept with the fields
  // above, so reclaiming a group reads its first two cache lines only.
  detail::InlineArray<sim::Scheduler::EventId, 4> timers_;
  std::string name_;
  VariableStore global_;
  detail::InlineArray<MachineInstance, 4> machines_;  // one per shape entry
  EngineMetrics metrics_;  // copy: one indirection per update, no null check
};

}  // namespace vids::efsm
