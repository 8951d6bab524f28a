#include "efsm/machine.h"

#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>

namespace vids::efsm {

namespace {
constexpr std::string_view kTimerPrefix = "timer:";
}  // namespace

std::string TimerEventName(std::string_view timer_name) {
  return std::string(kTimerPrefix) + std::string(timer_name);
}

StateId MachineDef::AddState(std::string name, StateKind kind) {
  const StateId id = static_cast<StateId>(states_.size());
  states_.push_back(State{std::move(name), kind});
  if (kind == StateKind::kInitial && initial_ == kInvalidState) {
    initial_ = id;
  }
  compiled_valid_ = false;
  return id;
}

void MachineDef::TransitionBuilder::To(StateId to, std::string label) {
  transition_.to = to;
  if (transition_.from == kInvalidState || to == kInvalidState ||
      static_cast<size_t>(transition_.from) >= def_.states_.size() ||
      static_cast<size_t>(to) >= def_.states_.size()) {
    throw std::invalid_argument(def_.name_ + ": transition between unknown states");
  }
  if (label.empty()) {
    label = std::string(def_.StateName(transition_.from)) + "--" +
            transition_.event_name + "-->" +
            std::string(def_.StateName(to));
  }
  transition_.label = std::move(label);
  def_.transitions_.push_back(std::move(transition_));
  def_.compiled_valid_ = false;
}

void MachineDef::EnsureCompiled() const {
  if (compiled_valid_) return;
  Compiled c;
  // Reserved up front so the string_view keys into event_names never move.
  c.event_names.reserve(transitions_.size());
  for (const auto& transition : transitions_) {
    if (c.event_index.contains(transition.event_name)) continue;
    const auto idx = static_cast<uint32_t>(c.event_names.size());
    const std::string& stored = c.event_names.emplace_back(
        transition.event_name);
    c.event_index.emplace(std::string_view(stored), idx);
    c.alphabet_bloom |=
        uint64_t{1} << (std::hash<std::string_view>{}(stored) & 63);
    if (stored.starts_with(kTimerPrefix)) {
      c.timer_events.emplace_back().name = stored;
    }
  }
  const size_t num_events = c.event_names.size();
  c.slots.assign(states_.size() * num_events, {0, 0});
  c.candidates.reserve(transitions_.size());
  for (size_t state = 0; state < states_.size(); ++state) {
    for (size_t event = 0; event < num_events; ++event) {
      const auto begin = static_cast<uint32_t>(c.candidates.size());
      for (const auto& transition : transitions_) {
        if (static_cast<size_t>(transition.from) == state &&
            transition.event_name == c.event_names[event]) {
          c.candidates.push_back(&transition);
        }
      }
      c.slots[state * num_events + event] = {
          begin, static_cast<uint32_t>(c.candidates.size())};
    }
  }
  compiled_ = std::move(c);
  compiled_valid_ = true;
}

std::span<const Transition* const> MachineDef::CandidatesFor(
    StateId from, std::string_view event_name, bool& in_alphabet) const {
  EnsureCompiled();
  const uint64_t bit =
      uint64_t{1} << (std::hash<std::string_view>{}(event_name) & 63);
  if ((compiled_.alphabet_bloom & bit) == 0) {
    in_alphabet = false;
    return {};
  }
  const auto it = compiled_.event_index.find(event_name);
  if (it == compiled_.event_index.end()) {
    in_alphabet = false;
    return {};
  }
  in_alphabet = true;
  if (from < 0 || static_cast<size_t>(from) >= states_.size()) return {};
  const auto [begin, end] = compiled_.slots[static_cast<size_t>(from) *
                                                compiled_.event_names.size() +
                                            it->second];
  return {compiled_.candidates.data() + begin, end - begin};
}

std::vector<const Transition*> MachineDef::Candidates(
    StateId from, std::string_view event_name) const {
  bool in_alphabet = false;
  const auto span = CandidatesFor(from, event_name, in_alphabet);
  return {span.begin(), span.end()};
}

size_t MachineDef::timer_count() const {
  EnsureCompiled();
  return compiled_.timer_events.size();
}

TimerId MachineDef::FindTimer(std::string_view name) const {
  EnsureCompiled();
  const auto& events = compiled_.timer_events;
  for (size_t id = 0; id < events.size(); ++id) {
    const std::string_view event_name = events[id].name;
    if (event_name.size() == kTimerPrefix.size() + name.size() &&
        event_name.ends_with(name)) {
      return static_cast<TimerId>(id);
    }
  }
  return kNoTimer;
}

const Event& MachineDef::TimerEvent(TimerId id) const {
  EnsureCompiled();
  return compiled_.timer_events.at(id);
}

namespace {
std::string DotEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

std::string MachineDef::ToDot() const {
  std::ostringstream out;
  out << "digraph \"" << DotEscape(name_) << "\" {\n";
  out << "  rankdir=LR;\n  node [shape=ellipse, fontsize=11];\n";
  for (size_t id = 0; id < states_.size(); ++id) {
    const State& state = states_[id];
    out << "  s" << id << " [label=\"" << DotEscape(state.name) << "\"";
    switch (state.kind) {
      case StateKind::kInitial:
        out << ", penwidth=2.5";
        break;
      case StateKind::kFinal:
        out << ", peripheries=2";
        break;
      case StateKind::kAttack:
        out << ", style=filled, fillcolor=\"#e05252\", fontcolor=white";
        break;
      case StateKind::kNormal:
        break;
    }
    out << "];\n";
  }
  for (const auto& transition : transitions_) {
    out << "  s" << transition.from << " -> s" << transition.to
        << " [label=\"" << DotEscape(transition.event_name);
    if (!transition.label.empty()) {
      out << "\\n[" << DotEscape(transition.label) << "]";
    }
    if (transition.predicate) out << "\\nP(x̄,v̄)";
    out << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

std::vector<std::string> MachineDef::Validate() const {
  std::vector<std::string> findings;

  // Structural reachability from the initial state.
  std::set<StateId> reachable;
  if (initial_ != kInvalidState) {
    std::deque<StateId> frontier{initial_};
    reachable.insert(initial_);
    while (!frontier.empty()) {
      const StateId current = frontier.front();
      frontier.pop_front();
      for (const auto& transition : transitions_) {
        if (transition.from == current && !reachable.contains(transition.to)) {
          reachable.insert(transition.to);
          frontier.push_back(transition.to);
        }
      }
    }
  } else {
    findings.push_back(name_ + ": no initial state");
  }

  for (size_t id = 0; id < states_.size(); ++id) {
    const State& state = states_[id];
    const auto state_id = static_cast<StateId>(id);
    if (initial_ != kInvalidState && !reachable.contains(state_id)) {
      findings.push_back(name_ + ": state '" + state.name +
                         "' unreachable from the initial state");
    }
    bool has_outgoing = false;
    for (const auto& transition : transitions_) {
      if (transition.from == state_id) {
        has_outgoing = true;
        if (state.kind == StateKind::kFinal) {
          findings.push_back(name_ + ": transition '" + transition.label +
                             "' leaves final state '" + state.name +
                             "' (dead: instances retire on entry)");
          break;
        }
      }
    }
    // Unreachable states were already reported; a trap finding on top of
    // that is noise.
    if (!has_outgoing && state.kind != StateKind::kFinal &&
        state.kind != StateKind::kAttack && state_id != initial_ &&
        reachable.contains(state_id)) {
      findings.push_back(name_ + ": state '" + state.name +
                         "' is a trap (no outgoing transitions, not final)");
    }
  }
  return findings;
}

}  // namespace vids::efsm
