#include "efsm/engine.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "common/log.h"
#include "common/strings.h"

namespace vids::efsm {

EngineMetrics EngineMetrics::Registered(obs::MetricsRegistry& registry) {
  EngineMetrics m;
  m.transitions = &registry.GetCounter("efsm.transitions");
  m.deviations = &registry.GetCounter("efsm.deviations");
  m.sync_sends = &registry.GetCounter("efsm.sync_sends");
  m.sync_dropped = &registry.GetCounter("efsm.sync_dropped");
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

// ----------------------------------------------------------- GroupShape

size_t GroupShape::AddMachine(const MachineDef& def,
                              std::string instance_name) {
  if (def.initial_state() == kInvalidState) {
    throw std::invalid_argument(def.name() + ": no initial state defined");
  }
  machines_.push_back(Machine{&def, std::move(instance_name)});
  return machines_.size() - 1;
}

void GroupShape::RouteChannel(std::string channel, size_t dst) {
  if (dst >= machines_.size()) {
    throw std::invalid_argument("route '" + channel + "' to unknown machine");
  }
  // Name order: a channel's id does not depend on the order of the routes.
  const auto it = std::lower_bound(
      channels_.begin(), channels_.end(), channel,
      [](const Channel& c, const std::string& name) { return c.name < name; });
  if (it != channels_.end() && it->name == channel) {
    it->dst = dst;
    return;
  }
  channels_.insert(it, Channel{std::move(channel), dst});
}

size_t GroupShape::IndexOf(std::string_view instance_name) const {
  for (size_t i = 0; i < machines_.size(); ++i) {
    if (machines_[i].name == instance_name) return i;
  }
  return npos;
}

size_t GroupShape::ChannelId(std::string_view channel) const {
  for (size_t id = 0; id < channels_.size(); ++id) {
    if (channels_[id].name == channel) return id;
  }
  return npos;
}

size_t GroupShape::SharedBytes() const {
  return flight_pool_.MemoryBytes() -
         flight_pool_.in_use() * sizeof(obs::FlightChunk) +
         sync_queue_.capacity() * sizeof(SyncEntry);
}

void GroupShape::ReleaseShared() {
  flight_pool_.Release();
  std::vector<SyncEntry>().swap(sync_queue_);
}

// ----------------------------------------------------- MachineInstance

MachineInstance::MachineInstance(Key, const MachineDef& def,
                                 MachineGroup& group, uint8_t index,
                                 uint32_t timer_base)
    : def_(def), group_(group), state_(def.initial_state()),
      index_(index), timer_base_(timer_base) {}

const std::string& MachineInstance::name() const {
  return group_.shape().instance_name(
      static_cast<size_t>(this - group_.machines_.data()));
}

MachineInstance::DeliverResult MachineInstance::Step(const Event& event) {
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
      rec.machine = index_;
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
    // Stores reserve what their definition's instances (the shape's groups,
    // for globals) have needed so far, so a fresh store allocates once and
    // a recycled one keeps its slots; the action's sizes then update that.
    GroupShape& shape = *group_.shape_;
    VariableStore& global = group_.global_;
    local_.Reserve(def_.local_slots_);
    global.Reserve(shape.global_slots_);
    Context ctx(event, local_, global, *this);
    enabled->action(ctx);
    if (local_.size() > def_.local_slots_) {
      def_.local_slots_ = static_cast<uint32_t>(local_.size());
    }
    if (global.size() > shape.global_slots_) {
      shape.global_slots_ = static_cast<uint32_t>(global.size());
    }
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
    rec.machine = index_;
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
    CancelTimers();
    if (group_.observer() != nullptr) group_.observer()->OnRetired(*this);
    if (group_.retirement_listener_ != nullptr) {
      group_.retirement_listener_->OnMachineRetired(*this);
    }
  }
  return DeliverResult::kTransitioned;
}

void MachineInstance::Reset() {
  state_ = def_.initial_state();
  retired_ = false;
  local_.Clear();
}

void MachineInstance::CancelTimers() {
  const size_t count = def_.timer_count();
  for (size_t id = 0; id < count; ++id) {
    group_.scheduler_.Cancel(group_.timers_[timer_base_ + id]);
  }
}

size_t MachineInstance::MemoryBytes() const {
  return sizeof(*this) + local_.HeapBytes();
}

void MachineInstance::EmitFrom(std::string_view channel, Event event) {
  group_.Enqueue(*this, channel, std::move(event));
}

void MachineInstance::StartTimer(std::string_view name, sim::Duration after) {
  const TimerId id = def_.FindTimer(name);
  if (id == kNoTimer) {
    VIDS_DEBUG_C("efsm") << group_.name_ << ": timer '" << name
                         << "' has no expiry transition; not scheduled";
    return;
  }
  // The capture is two words and trivially copyable, so it sits in
  // std::function's inline buffer: arming a timer allocates nothing.
  struct Expiry {
    MachineInstance* machine;
    TimerId id;
    void operator()() const { machine->OnTimer(id); }
  };
  static_assert(std::is_trivially_copyable_v<Expiry> &&
                sizeof(Expiry) <= 2 * sizeof(void*));
  sim::Scheduler& scheduler = group_.scheduler_;
  sim::Scheduler::EventId& pending = group_.timers_[timer_base_ + id];
  scheduler.Cancel(pending);
  pending = scheduler.ScheduleAfter(after, Expiry{this, id});
}

void MachineInstance::CancelTimer(std::string_view name) {
  const TimerId id = def_.FindTimer(name);
  if (id != kNoTimer) {
    group_.scheduler_.Cancel(group_.timers_[timer_base_ + id]);
  }
}

void MachineInstance::OnTimer(TimerId id) {
  // Fired: an inert handle lets Reclaim skip the scheduler lookup.
  group_.timers_[timer_base_ + id] = sim::Scheduler::EventId();
  group_.DeliverData(*this, def_.TimerEvent(id));
}

sim::Time MachineInstance::Now() const { return group_.scheduler_.Now(); }

// -------------------------------------------------------- MachineGroup

MachineGroup::MachineGroup(GroupShape& shape, std::string name,
                           sim::Scheduler& scheduler, Observer* observer,
                           const EngineMetrics* metrics)
    : shape_(&shape),
      scheduler_(scheduler),
      observer_(observer),
      recorder_(shape.flight_pool_),
      name_(std::move(name)) {
  if (metrics != nullptr) metrics_ = *metrics;
  uint32_t timer_base = 0;
  machines_.Build(shape.size(), [&](size_t i) {
    const MachineDef& def = shape.def(i);
    const uint8_t index = i < obs::Record::kNoMachine
                              ? static_cast<uint8_t>(i)
                              : obs::Record::kNoMachine;
    const uint32_t base = timer_base;
    timer_base += static_cast<uint32_t>(def.timer_count());
    return MachineInstance(MachineInstance::Key(), def, *this, index, base);
  });
  timers_.Build(timer_base, [](size_t) { return sim::Scheduler::EventId(); });
}

MachineGroup::~MachineGroup() { Reclaim(); }

void MachineGroup::Reclaim() {
  for (auto& pending : timers_) scheduler_.Cancel(pending);
}

void MachineGroup::Reset(std::string_view name) {
  Reclaim();
  name_.assign(name);
  global_.Clear();
  for (auto& machine : machines_) machine.Reset();
  recorder_.Reset();
}

MachineInstance* MachineGroup::Find(std::string_view instance_name) {
  const size_t index = shape_->IndexOf(instance_name);
  return index == GroupShape::npos ? nullptr : &machines_[index];
}

MachineInstance::DeliverResult MachineGroup::DeliverData(
    MachineInstance& machine, const Event& event) {
  if (pumping_) return machine.Step(event);  // joins the running delivery
  const size_t base = shape_->sync_queue_.size();
  pumping_ = true;
  const MachineInstance::DeliverResult result = machine.Step(event);
  if (shape_->sync_queue_.size() != base) PumpSyncQueue(base);
  pumping_ = false;
  return result;
}

void MachineGroup::Enqueue(const MachineInstance& from,
                           std::string_view channel, Event event) {
  const size_t id = shape_->ChannelId(channel);
  if (id == GroupShape::npos) {
    VIDS_DEBUG_C("efsm") << name_ << ": sync event '" << event.name
                         << "' emitted on unrouted channel '" << channel
                         << "'";
    return;
  }
  metrics_.sync_sends->Inc();
  obs::Record rec;
  rec.type = obs::RecordType::kSyncSend;
  rec.when_ns = scheduler_.Now().nanos();
  rec.machine = from.index_;
  rec.a = ArgKey::Intern(event.name).id();
  rec.aux = id;
  recorder_.Record(rec);
  shape_->sync_queue_.push_back(
      GroupShape::SyncEntry{this, static_cast<uint32_t>(id), std::move(event)});
}

void MachineGroup::PumpSyncQueue(size_t base) {
  // Indexes, not iterators: a delivery may grow the queue. Every entry at
  // `base` or after was queued by this delivery or by one nested in it; a
  // nested delivery of another group pumped and dropped its own before
  // returning, so the only foreign entries left are those of an enclosing
  // delivery's group, delivered again from inside this one.
  std::vector<GroupShape::SyncEntry>& queue = shape_->sync_queue_;
  size_t delivered = 0;
  bool foreign = false;
  for (size_t i = base; i < queue.size(); ++i) {
    if (queue[i].group != this) {
      foreign = true;
      continue;
    }
    if (delivered == kMaxSyncEvents) {
      metrics_.sync_dropped->Inc();
      continue;
    }
    ++delivered;
    MachineInstance& dst = machines_[shape_->channel_dst(queue[i].channel)];
    const Event event = std::move(queue[i].event);
    dst.Step(event);
  }
  size_t kept = base;
  if (foreign) {
    // Keep them, in order, for the enclosing delivery's pump.
    for (size_t i = base; i < queue.size(); ++i) {
      if (queue[i].group != this) {
        if (kept != i) queue[kept] = std::move(queue[i]);
        ++kept;
      }
    }
  }
  queue.erase(queue.begin() + static_cast<ptrdiff_t>(kept), queue.end());
}

bool MachineGroup::AllRetired() const {
  for (const auto& machine : machines_) {
    if (!machine.retired()) return false;
  }
  return machines_.size() != 0;
}

size_t MachineGroup::PendingTimers() const {
  size_t pending = 0;
  for (const auto& id : timers_) pending += scheduler_.IsPending(id) ? 1 : 0;
  return pending;
}

size_t MachineGroup::MemoryBytes() const {
  size_t bytes = sizeof(*this) + common::StringHeapBytes(name_) +
                 global_.HeapBytes() + machines_.HeapBytes() +
                 timers_.HeapBytes() + recorder_.MemoryBytes();
  for (const auto& machine : machines_) bytes += machine.local().HeapBytes();
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
        rec.machine < machines_.size() ? &machines_[rec.machine] : nullptr;
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
        if (rec.aux < shape_->channel_count()) {
          line += " on ";
          line += shape_->channel_name(rec.aux);
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
      case obs::RecordType::kNone:
        line += "<empty>";
        break;
    }
    lines.push_back(std::move(line));
  });
  return lines;
}

}  // namespace vids::efsm
