// EFSM definitions: the static quintuple M = (Σ, S, v̄, D, T).
//
// A MachineDef is built once per protocol or attack pattern and shared by
// every per-call instance, matching the paper's claim that per-call cost is
// only a configuration (state id + variable valuation). Transitions carry a
// predicate P(x̄, v̄) over event arguments and state variables and an action
// A(v̄) that updates variables, emits synchronization events (c!event) and
// manages timers. States may be annotated as attack states (s_attack);
// reaching one is an attack-scenario match.
//
// Dispatch is compiled: the definition lazily builds a per-(state, event)
// candidate table plus an event-alphabet bloom filter, so delivering an
// event is one filtered hash lookup and a span scan instead of a walk over
// every transition in the definition. The same compile numbers the timers
// the definition reacts to and prebuilds each one's expiry event, so a
// timer is an index on every instance and an expiry builds nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "efsm/value.h"
#include "sim/time.h"

namespace vids::efsm {

using StateId = int;
constexpr StateId kInvalidState = -1;

enum class StateKind : uint8_t {
  kNormal,
  kInitial,
  kFinal,   // reaching it retires the instance (call completed cleanly)
  kAttack,  // reaching it raises an attack alert
};

/// An event instance: a data packet arrival (c?event(x̄)), a synchronization
/// message from a peer machine (δ), or a timer expiry. Arguments live in a
/// flat interned-key vector; hot-path readers pass ArgKey constants so a
/// lookup is a short integer scan, string_view overloads intern on the fly.
struct Event {
  std::string name;
  EventArgs args;

  const Value& Arg(ArgKey key) const {
    static const Value kUnset{};
    const Value* v = args.Find(key);
    return v == nullptr ? kUnset : *v;
  }
  const Value& Arg(std::string_view key) const {
    return Arg(ArgKey::Intern(key));
  }
  std::optional<int64_t> ArgInt(ArgKey key) const {
    const auto* v = std::get_if<int64_t>(&Arg(key));
    return v ? std::optional<int64_t>(*v) : std::nullopt;
  }
  std::optional<int64_t> ArgInt(std::string_view key) const {
    return ArgInt(ArgKey::Intern(key));
  }
  std::optional<std::string> ArgString(ArgKey key) const {
    const auto* v = std::get_if<std::string>(&Arg(key));
    return v ? std::optional<std::string>(*v) : std::nullopt;
  }
  std::optional<std::string> ArgString(std::string_view key) const {
    return ArgString(ArgKey::Intern(key));
  }
  /// Zero-copy string read: nullptr when absent or not a string.
  const std::string* ArgStr(ArgKey key) const {
    return std::get_if<std::string>(&Arg(key));
  }
};

/// Prefix convention for timer-expiry events: starting timer "T1" delivers
/// Event{ name = "timer:T1" } to the machine that started it.
std::string TimerEventName(std::string_view timer_name);

/// Index of a timer within its definition (MachineDef::FindTimer).
using TimerId = uint16_t;
inline constexpr TimerId kNoTimer = UINT16_MAX;

class MachineInstance;

/// Everything a predicate/action can see and do. Only actions may mutate.
class Context {
 public:
  Context(const Event& event, VariableStore& local, VariableStore& global,
          MachineInstance& instance)
      : event_(event), local_(local), global_(global), instance_(instance) {}

  const Event& event() const { return event_; }
  const VariableStore& local() const { return local_; }
  const VariableStore& global() const { return global_; }
  VariableStore& mutable_local() { return local_; }
  VariableStore& mutable_global() { return global_; }

  // --- Action-side effects (routed through the owning instance) ---
  /// c!event: enqueue `event` on the named output channel.
  void Emit(std::string_view channel, Event event);
  /// Starts (or restarts) a named timer on this machine. A name no
  /// "timer:NAME" transition of the definition handles is not scheduled:
  /// its expiry could only be ignored.
  void StartTimer(std::string_view name, sim::Duration after);
  void CancelTimer(std::string_view name);
  /// Current simulated time, for predicates that reason about rates.
  sim::Time Now() const;

 private:
  const Event& event_;
  VariableStore& local_;
  VariableStore& global_;
  MachineInstance& instance_;
};

using Predicate = std::function<bool(const Context&)>;
using Action = std::function<void(Context&)>;

struct Transition {
  StateId from = kInvalidState;
  std::string event_name;
  Predicate predicate;  // null → "else": taken only if no predicated
                        // sibling transition is enabled
  Action action;        // null → no-op
  StateId to = kInvalidState;
  std::string label;    // human-readable, for traces and alerts
};

/// The shared, immutable definition of one protocol or attack-pattern EFSM.
class MachineDef {
 public:
  explicit MachineDef(std::string name) : name_(std::move(name)) {}

  /// Adds a state. The first kInitial state added becomes the start state.
  StateId AddState(std::string name, StateKind kind = StateKind::kNormal);

  /// Fluent transition builder:
  ///   def.On(s0, "SIP Packet").When(pred).Do(action).To(s1, "label");
  class TransitionBuilder {
   public:
    TransitionBuilder& When(Predicate predicate) {
      transition_.predicate = std::move(predicate);
      return *this;
    }
    TransitionBuilder& Do(Action action) {
      transition_.action = std::move(action);
      return *this;
    }
    /// Finalizes the transition. `label` defaults to "from--event-->to".
    void To(StateId to, std::string label = {});

   private:
    friend class MachineDef;
    TransitionBuilder(MachineDef& def, StateId from, std::string event_name)
        : def_(def) {
      transition_.from = from;
      transition_.event_name = std::move(event_name);
    }
    MachineDef& def_;
    Transition transition_;
  };

  TransitionBuilder On(StateId from, std::string event_name) {
    return TransitionBuilder(*this, from, std::move(event_name));
  }

  /// Specification machines report unmatched events as deviations (anomaly
  /// evidence); attack-pattern machines set this false — for them a
  /// non-match just means "not this attack".
  void set_report_deviations(bool report) { report_deviations_ = report; }
  bool report_deviations() const { return report_deviations_; }

  const std::string& name() const { return name_; }
  StateId initial_state() const { return initial_; }
  size_t state_count() const { return states_.size(); }
  std::string_view StateName(StateId id) const { return states_.at(id).name; }
  StateKind Kind(StateId id) const { return states_.at(id).kind; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Transitions leaving `from` on `event_name`, in definition order, as a
  /// view into the compiled candidate table. Sets `in_alphabet` to false
  /// when `event_name` appears nowhere in the definition (the span is then
  /// empty). The view is invalidated by any mutation of the definition.
  std::span<const Transition* const> CandidatesFor(
      StateId from, std::string_view event_name, bool& in_alphabet) const;

  /// Copying convenience wrapper over CandidatesFor.
  std::vector<const Transition*> Candidates(StateId from,
                                            std::string_view event_name) const;

  /// The timers the definition reacts to: every "timer:NAME" event of the
  /// transition alphabet, numbered in first-use order. Instances keep one
  /// scheduler handle per id.
  size_t timer_count() const;
  /// Id of timer `name`, or kNoTimer when no transition handles its expiry.
  TimerId FindTimer(std::string_view name) const;
  /// The expiry event of timer `id` ("timer:NAME", no arguments), built
  /// once and delivered as is by every instance.
  const Event& TimerEvent(TimerId id) const;

  /// The most variables one instance's local store has held so far: each
  /// instance reserves that many slots before an action runs, so a fresh
  /// store allocates once and a recycled one not at all. A measurement of
  /// the instances, not a setting; like the compiled tables it changes
  /// through a const definition, and one thread runs all the instances of
  /// a definition (DESIGN.md §11).
  size_t local_slots() const { return local_slots_; }

  /// Renders the machine as a Graphviz digraph: initial state with a bold
  /// border, attack states filled red, final states double-circled, edges
  /// labeled "event [label]". This regenerates the paper's Figures 2/4/5/6
  /// from the executable definitions.
  std::string ToDot() const;

  /// Static well-formedness findings, one message per problem:
  ///  * states unreachable from the initial state
  ///  * transitions out of final states (dead by construction)
  ///  * non-initial states with no outgoing transitions that are neither
  ///    final nor attack (traps that can never retire)
  /// An empty result means the definition is plausible; it is advisory —
  /// predicates are opaque, so reachability is structural only.
  std::vector<std::string> Validate() const;

 private:
  friend class TransitionBuilder;
  friend class MachineInstance;  // updates local_slots_
  struct State {
    std::string name;
    StateKind kind;
  };

  /// Compiled dispatch tables, built lazily on first delivery and discarded
  /// whenever the definition mutates. `event_names` owns the alphabet;
  /// `event_index` keys on views into it (the vector is reserved up front so
  /// the views stay stable). `slots[state * num_events + event]` is the
  /// [begin, end) range of `candidates` for that pair, preserving
  /// definition order. `alphabet_bloom` has bit hash(name)%64 set for every
  /// alphabet member — one AND rejects most foreign events without a hash
  /// table probe. `timer_events` holds the expiry event of each TimerId.
  struct Compiled {
    std::vector<std::string> event_names;
    std::unordered_map<std::string_view, uint32_t> event_index;
    uint64_t alphabet_bloom = 0;
    std::vector<const Transition*> candidates;
    std::vector<std::pair<uint32_t, uint32_t>> slots;
    std::vector<Event> timer_events;
  };
  void EnsureCompiled() const;

  std::string name_;
  std::vector<State> states_;
  std::vector<Transition> transitions_;
  StateId initial_ = kInvalidState;
  bool report_deviations_ = true;
  mutable Compiled compiled_;
  mutable bool compiled_valid_ = false;
  mutable uint32_t local_slots_ = 0;
};

}  // namespace vids::efsm
