// EFSM runtime: instances, communicating groups, sync channels, timers.
//
// One MachineGroup exists per monitored call (paper §5: "only one instance
// of a protocol state machine is maintained ... per call"). The group owns
// the shared global variable store, the FIFO synchronization channels
// between machines (Fig. 2(b)) and delivers events with the paper's
// priority rule: queued synchronization events are processed before any
// further data event.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "efsm/machine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace vids::efsm {

class MachineInstance;
class MachineGroup;

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

class MachineInstance {
 public:
  enum class DeliverResult {
    kTransitioned,
    kNotInAlphabet,  // event name never appears in the definition: ignored
    kIgnored,        // timer event with no enabled transition: harmless
    kDeviation,      // data/sync event with no enabled transition
    kRetired,        // machine already reached a final state
  };

  DeliverResult Deliver(const Event& event);

  const MachineDef& def() const { return def_; }
  const std::string& name() const { return name_; }
  StateId state() const { return state_; }
  std::string_view StateName() const { return def_.StateName(state_); }
  bool retired() const { return retired_; }
  VariableStore& local() { return local_; }
  const VariableStore& local() const { return local_; }
  MachineGroup& group() { return group_; }
  const MachineGroup& group() const { return group_; }
  /// Position within the owning group — the flight recorder's machine id.
  uint8_t index_in_group() const { return index_in_group_; }

  /// Approximate per-instance footprint (§7.3 memory accounting).
  size_t MemoryBytes() const;

 private:
  friend class MachineGroup;
  friend class Context;

  /// Returns the instance to its initial configuration: initial state,
  /// empty variable valuation, no pending timers. Variable-store capacity
  /// is retained — that is the point of recycling.
  void ResetForReuse();
  MachineInstance(const MachineDef& def, std::string name,
                  MachineGroup& group);

  // Context's action-side hooks.
  void EmitFrom(std::string_view channel, Event event);
  void StartTimer(std::string_view name, sim::Duration after);
  void CancelTimer(std::string_view name);
  sim::Time Now() const;

  const MachineDef& def_;
  std::string name_;
  MachineGroup& group_;
  StateId state_;
  bool retired_ = false;
  uint8_t index_in_group_ = obs::Record::kNoMachine;  // ring-record identity
  VariableStore local_;
  std::map<std::string, std::unique_ptr<sim::Timer>, std::less<>> timers_;
};

class MachineGroup {
 public:
  /// `observer` may be null; it must outlive the group otherwise.
  /// `metrics`, when non-null, is copied — the shared slots it points at
  /// must outlive the group (in practice they live in a MetricsRegistry
  /// owned by the deployment that creates the groups).
  MachineGroup(std::string name, sim::Scheduler& scheduler,
               Observer* observer, const EngineMetrics* metrics = nullptr);

  /// Instantiates `def` into this group under `instance_name`. The
  /// definition is shared, not copied — it must outlive the group (that is
  /// the paper's cost model: per-call state is a configuration, the machine
  /// itself exists once). The rvalue overload is deleted so a temporary
  /// definition cannot dangle.
  MachineInstance& AddMachine(const MachineDef& def,
                              std::string instance_name);
  MachineInstance& AddMachine(MachineDef&& def,
                              std::string instance_name) = delete;

  /// Routes the named channel (e.g. "SIP->RTP") to a destination machine.
  void RouteChannel(std::string channel, MachineInstance& dst);

  /// Installs the owner's retirement hook (null removes it). It must
  /// outlive the group; ResetForReuse keeps it.
  void set_retirement_listener(RetirementListener* listener) {
    retirement_listener_ = listener;
  }

  /// Resets the group for reuse under a new call name: every machine back
  /// to its initial configuration, variable valuations and sync queues
  /// emptied, pending timers cancelled, flight ring forgotten. Machine set
  /// and channel routing are kept, so only a pool of identically-shaped
  /// groups may recycle through this (the fact base's call groups are).
  /// Buffer capacities survive — recycling a group skips the allocation
  /// storm of building one.
  void ResetForReuse(std::string name);

  /// Delivers a data event to one machine, then pumps the synchronization
  /// queues to quiescence (sync has priority over the next data event).
  void DeliverData(MachineInstance& machine, const Event& event);

  MachineInstance* Find(std::string_view instance_name);

  const std::string& name() const { return name_; }
  sim::Scheduler& scheduler() { return scheduler_; }
  Observer* observer() { return observer_; }
  VariableStore& global() { return global_; }
  const std::vector<std::unique_ptr<MachineInstance>>& machines() const {
    return machines_;
  }
  /// True when every machine reached a final state — the call completed and
  /// the fact base may delete this group (paper §5).
  bool AllRetired() const;
  size_t MemoryBytes() const;

  /// The per-call flight recorder: the last FlightRecorder::kCapacity
  /// engine happenings of this call, in compact binary form. The analysis
  /// engine appends its own fact-base and alert records here too, so an
  /// alert's provenance is the tail of exactly one ring. Mutable through a
  /// const group: recording is an observability side effect, not a change
  /// of the group's logical state (observers hold const references).
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
  void PumpSyncQueues();
  void OnTimerFired(MachineInstance& machine, const std::string& timer_name);

  struct Channel {
    MachineInstance* dst = nullptr;
    // FIFO as vector + cursor rather than std::deque: sizeof(Event) exceeds
    // the deque chunk size, so a deque pays one heap node per queued event
    // (plus the map block at construction); the vector buffer is reused for
    // the life of the channel.
    std::vector<Event> queue;
    size_t head = 0;
    uint16_t id = 0;  // ring-record identity, assigned at RouteChannel
  };

  std::string name_;
  sim::Scheduler& scheduler_;
  Observer* observer_;
  RetirementListener* retirement_listener_ = nullptr;
  EngineMetrics metrics_;  // copy: one indirection per update, no null check
  mutable obs::FlightRecorder recorder_;
  VariableStore global_;
  std::vector<std::unique_ptr<MachineInstance>> machines_;
  std::map<std::string, Channel, std::less<>> channels_;
  bool pumping_ = false;
};

}  // namespace vids::efsm
