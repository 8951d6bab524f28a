#include "efsm/engine.h"

#include <cstdio>
#include <stdexcept>

#include "common/log.h"

namespace vids::efsm {

EngineMetrics EngineMetrics::Registered(obs::MetricsRegistry& registry) {
  EngineMetrics m;
  m.transitions = &registry.GetCounter("efsm.transitions");
  m.deviations = &registry.GetCounter("efsm.deviations");
  m.sync_sends = &registry.GetCounter("efsm.sync_sends");
  m.nondeterminism = &registry.GetCounter("efsm.nondeterminism");
  m.retired = &registry.GetCounter("efsm.machines_retired");
  m.transition_ns = &registry.GetHistogram("efsm.transition_ns");
  return m;
}

// ------------------------------------------------------------- Context

void Context::Emit(std::string_view channel, Event event) {
  instance_.EmitFrom(channel, std::move(event));
}
void Context::StartTimer(std::string_view name, sim::Duration after) {
  instance_.StartTimer(name, after);
}
void Context::CancelTimer(std::string_view name) {
  instance_.CancelTimer(name);
}
sim::Time Context::Now() const { return instance_.Now(); }

// ----------------------------------------------------- MachineInstance

MachineInstance::MachineInstance(const MachineDef& def, std::string name,
                                 MachineGroup& group)
    : def_(def), name_(std::move(name)), group_(group),
      state_(def.initial_state()) {
  if (state_ == kInvalidState) {
    throw std::invalid_argument(def.name() + ": no initial state defined");
  }
}

MachineInstance::DeliverResult MachineInstance::Deliver(const Event& event) {
  if (retired_) return DeliverResult::kRetired;

  // 1-in-kLatencySamplePeriod deliveries measure wall-clock latency into
  // the shared histogram; everything else pays one increment and one
  // predictable branch. Keeps instrumentation inside the ≤ 10% transition
  // overhead budget while still filling p50/p99 within a second of load.
  EngineMetrics& metrics = group_.metrics_;
  const bool sampled =
      (++metrics.sample_tick & (EngineMetrics::kLatencySamplePeriod - 1)) == 0;
  const int64_t t0 = sampled ? obs::MonotonicNanos() : 0;

  bool in_alphabet = false;
  const auto candidates = def_.CandidatesFor(state_, event.name, in_alphabet);
  // Predicated transitions compete (and §4.1 wants their predicates
  // mutually disjoint — overlap is reported); an unpredicated transition is
  // the "else" branch, taken only when no predicate is enabled.
  const Transition* enabled = nullptr;
  const Transition* fallback = nullptr;
  size_t enabled_count = 0;
  for (const Transition* candidate : candidates) {
    if (!candidate->predicate) {
      if (fallback == nullptr) fallback = candidate;
      continue;
    }
    Context ctx(event, local_, group_.global(), *this);
    if (candidate->predicate(ctx)) {
      ++enabled_count;
      if (enabled == nullptr) enabled = candidate;
    }
  }
  if (enabled == nullptr) enabled = fallback;

  if (enabled == nullptr) {
    const bool is_timer = event.name.starts_with("timer:");
    if (is_timer) return DeliverResult::kIgnored;
    // Event outside the machine's alphabet is not the machine's business.
    if (!in_alphabet) return DeliverResult::kNotInAlphabet;
    if (def_.report_deviations()) {
      // Interning here is off the clean steady-state path: pattern machines
      // (which see arbitrary event storms) don't report deviations, and
      // spec-machine deviations draw from the bounded protocol alphabet.
      metrics.deviations->Inc();
      obs::Record rec;
      rec.type = obs::RecordType::kDeviation;
      rec.when_ns = group_.scheduler_.Now().nanos();
      rec.machine = index_in_group_;
      rec.from = static_cast<int16_t>(state_);
      rec.to = static_cast<int16_t>(state_);
      rec.a = ArgKey::Intern(event.name).id();
      group_.recorder_.Record(rec);
      if (group_.observer() != nullptr) {
        group_.observer()->OnDeviation(*this, event);
      }
    }
    return DeliverResult::kDeviation;
  }

  if (enabled_count > 1) {
    metrics.nondeterminism->Inc();
    if (group_.observer() != nullptr) {
      group_.observer()->OnNondeterminism(*this, event, enabled_count);
    }
  }

  if (enabled->action) {
    Context ctx(event, local_, group_.global(), *this);
    enabled->action(ctx);
  }
  const StateId prev = state_;
  state_ = enabled->to;
  metrics.transitions->Inc();
  {
    // Candidates are pointers into the definition's transition vector, so
    // the transition's index falls out of pointer arithmetic — no name
    // lookup on the hot path; ExplainFlight decodes it back later.
    obs::Record rec;
    rec.type = obs::RecordType::kTransition;
    rec.when_ns = group_.scheduler_.Now().nanos();
    rec.machine = index_in_group_;
    rec.a = static_cast<uint16_t>(enabled - def_.transitions().data());
    rec.from = static_cast<int16_t>(prev);
    rec.to = static_cast<int16_t>(state_);
    group_.recorder_.Record(rec);
  }
  if (sampled) metrics.transition_ns->Record(obs::MonotonicNanos() - t0);
  if (group_.observer() != nullptr) {
    group_.observer()->OnTransition(*this, *enabled, event);
    if (def_.Kind(state_) == StateKind::kAttack) {
      group_.observer()->OnAttackState(*this, state_, event);
    }
  }
  if (def_.Kind(state_) == StateKind::kFinal) {
    retired_ = true;
    metrics.retired->Inc();
    for (auto& [timer_name, timer] : timers_) timer->Cancel();
    if (group_.observer() != nullptr) group_.observer()->OnRetired(*this);
    if (group_.retirement_listener_ != nullptr) {
      group_.retirement_listener_->OnMachineRetired(*this);
    }
  }
  return DeliverResult::kTransitioned;
}

void MachineInstance::ResetForReuse() {
  state_ = def_.initial_state();
  retired_ = false;
  local_.Clear();
  timers_.clear();  // Timer destructors cancel any pending expiry
}

size_t MachineInstance::MemoryBytes() const {
  return sizeof(*this) + name_.capacity() + local_.MemoryBytes() +
         timers_.size() * (sizeof(sim::Timer) + 4 * sizeof(void*));
}

void MachineInstance::EmitFrom(std::string_view channel, Event event) {
  group_.Enqueue(*this, channel, std::move(event));
}

void MachineInstance::StartTimer(std::string_view name, sim::Duration after) {
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_
             .emplace(std::string(name),
                      std::make_unique<sim::Timer>(group_.scheduler()))
             .first;
  }
  const std::string timer_name(name);
  it->second->Start(after, [this, timer_name] {
    group_.OnTimerFired(*this, timer_name);
  });
}

void MachineInstance::CancelTimer(std::string_view name) {
  const auto it = timers_.find(name);
  if (it != timers_.end()) it->second->Cancel();
}

sim::Time MachineInstance::Now() const { return group_.scheduler().Now(); }

// -------------------------------------------------------- MachineGroup

MachineGroup::MachineGroup(std::string name, sim::Scheduler& scheduler,
                           Observer* observer, const EngineMetrics* metrics)
    : name_(std::move(name)), scheduler_(scheduler), observer_(observer) {
  if (metrics != nullptr) metrics_ = *metrics;
  // A call group holds the two protocol machines, two always-on scenario
  // machines, and up to four session-scoped ones added later — reserve once
  // instead of doubling through the call-creation hot path.
  machines_.reserve(8);
}

MachineInstance& MachineGroup::AddMachine(const MachineDef& def,
                                          std::string instance_name) {
  machines_.push_back(std::unique_ptr<MachineInstance>(
      new MachineInstance(def, std::move(instance_name), *this)));
  machines_.back()->index_in_group_ =
      machines_.size() <= obs::Record::kNoMachine
          ? static_cast<uint8_t>(machines_.size() - 1)
          : obs::Record::kNoMachine;
  return *machines_.back();
}

void MachineGroup::ResetForReuse(std::string name) {
  name_ = std::move(name);
  global_.Clear();
  for (auto& machine : machines_) machine->ResetForReuse();
  for (auto& [channel_name, channel] : channels_) {
    channel.queue.clear();
    channel.head = 0;
  }
  recorder_.Reset();
  pumping_ = false;
}

void MachineGroup::RouteChannel(std::string channel, MachineInstance& dst) {
  Channel& entry = channels_[std::move(channel)];
  entry.dst = &dst;
  if (entry.id == 0) entry.id = static_cast<uint16_t>(channels_.size());
}

MachineInstance* MachineGroup::Find(std::string_view instance_name) {
  for (const auto& machine : machines_) {
    if (machine->name() == instance_name) return machine.get();
  }
  return nullptr;
}

void MachineGroup::DeliverData(MachineInstance& machine, const Event& event) {
  // Paper §4.2: synchronization events waiting in FIFO queues have priority
  // over data packet events.
  PumpSyncQueues();
  machine.Deliver(event);
  PumpSyncQueues();
}

void MachineGroup::Enqueue(const MachineInstance& from,
                           std::string_view channel, Event event) {
  const auto it = channels_.find(channel);
  if (it == channels_.end() || it->second.dst == nullptr) {
    VIDS_DEBUG_C("efsm") << name_ << ": sync event '" << event.name
                         << "' emitted on unrouted channel '" << channel
                         << "'";
    return;
  }
  metrics_.sync_sends->Inc();
  obs::Record rec;
  rec.type = obs::RecordType::kSyncSend;
  rec.when_ns = scheduler_.Now().nanos();
  rec.machine = from.index_in_group_;
  rec.a = ArgKey::Intern(event.name).id();
  rec.aux = it->second.id;
  recorder_.Record(rec);
  it->second.queue.push_back(std::move(event));
}

void MachineGroup::PumpSyncQueues() {
  if (pumping_) return;  // re-entrant Emit during a sync delivery
  pumping_ = true;
  // Bounded pump: a cyclic emit chain cannot livelock the IDS.
  constexpr int kMaxSyncEvents = 1000;
  int processed = 0;
  bool progressed = true;
  while (progressed && processed < kMaxSyncEvents) {
    progressed = false;
    for (auto& [channel_name, channel] : channels_) {
      while (channel.head < channel.queue.size() &&
             processed < kMaxSyncEvents) {
        Event event = std::move(channel.queue[channel.head]);
        if (++channel.head == channel.queue.size()) {
          channel.queue.clear();  // keeps capacity for the next emit
          channel.head = 0;
        }
        ++processed;
        progressed = true;
        channel.dst->Deliver(event);
      }
    }
  }
  pumping_ = false;
}

void MachineGroup::OnTimerFired(MachineInstance& machine,
                                const std::string& timer_name) {
  Event event;
  event.name = TimerEventName(timer_name);
  DeliverData(machine, event);
}

bool MachineGroup::AllRetired() const {
  for (const auto& machine : machines_) {
    if (!machine->retired()) return false;
  }
  return !machines_.empty();
}

size_t MachineGroup::MemoryBytes() const {
  size_t bytes = sizeof(*this) + name_.capacity() + global_.MemoryBytes();
  for (const auto& machine : machines_) bytes += machine->MemoryBytes();
  for (const auto& [channel_name, channel] : channels_) {
    bytes += channel_name.capacity() + sizeof(Channel);
  }
  return bytes;
}

namespace {

std::string FormatSimSeconds(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) * 1e-9);
  return buf;
}

}  // namespace

std::vector<std::string> MachineGroup::ExplainFlight(
    size_t max, const FactDecoder& fact_decoder) const {
  std::vector<std::string> lines;
  const size_t held = recorder_.size();
  const size_t skip = held > max ? held - max : 0;
  lines.reserve(held - skip);
  size_t index = 0;
  recorder_.ForEach([&](const obs::Record& rec) {
    if (index++ < skip) return;
    std::string line = "t=";
    line += FormatSimSeconds(rec.when_ns);
    line += "s ";
    const MachineInstance* machine =
        rec.machine < machines_.size() ? machines_[rec.machine].get() : nullptr;
    switch (rec.type) {
      case obs::RecordType::kTransition: {
        if (machine == nullptr ||
            rec.a >= machine->def().transitions().size()) {
          line += "transition <corrupt record>";
          break;
        }
        const MachineDef& def = machine->def();
        const Transition& t = def.transitions()[rec.a];
        line += machine->name();
        line += ": '";
        line += t.event_name;
        line += "' ";
        line += def.StateName(rec.from);
        line += " -> ";
        line += def.StateName(rec.to);
        if (!t.label.empty()) {
          line += " [";
          line += t.label;
          line += ']';
        }
        break;
      }
      case obs::RecordType::kSyncSend: {
        line += machine != nullptr ? machine->name() : "?";
        line += ": sync-send '";
        line += ArgKey::NameOfId(rec.a);
        line += '\'';
        for (const auto& [channel_name, channel] : channels_) {
          if (channel.id == rec.aux) {
            line += " on ";
            line += channel_name;
            break;
          }
        }
        break;
      }
      case obs::RecordType::kDeviation: {
        line += machine != nullptr ? machine->name() : "?";
        line += ": deviation, event '";
        line += ArgKey::NameOfId(rec.a);
        line += "' in state ";
        line += machine != nullptr ? machine->def().StateName(rec.from)
                                   : std::string_view("?");
        break;
      }
      case obs::RecordType::kFactAssert:
      case obs::RecordType::kFactRetract: {
        std::string decoded;
        if (fact_decoder) decoded = fact_decoder(rec);
        if (!decoded.empty()) {
          line += decoded;
        } else {
          line += rec.type == obs::RecordType::kFactAssert ? "fact-assert"
                                                           : "fact-retract";
          char buf[24];
          std::snprintf(buf, sizeof(buf), " aux=0x%llx",
                        static_cast<unsigned long long>(rec.aux));
          line += buf;
        }
        break;
      }
      case obs::RecordType::kAlert: {
        line += "ALERT '";
        line += ArgKey::NameOfId(rec.a);
        line += "' raised";
        if (machine != nullptr) {
          line += " by ";
          line += machine->name();
        }
        break;
      }
      case obs::RecordType::kSpan: {
        // Pipeline spans live in the sharded engine's per-shard recorders,
        // not in call groups — but render them anyway so a mixed ring stays
        // readable: shard, end-to-end ns, and the two stage times in µs.
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "span shard=%d e2e=%lluns queue=%uus inspect=%dus",
                      static_cast<int>(rec.to),
                      static_cast<unsigned long long>(rec.aux),
                      static_cast<unsigned>(rec.a), static_cast<int>(rec.from));
        line += buf;
        break;
      }
      case obs::RecordType::kNone:
        line += "<empty>";
        break;
    }
    lines.push_back(std::move(line));
  });
  return lines;
}

}  // namespace vids::efsm
