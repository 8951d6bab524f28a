#include "vids/behavior/behavior.h"

#include <algorithm>
#include <utility>

namespace vids::ids::behavior {

namespace {

// The profile wheel's slot width: the default sweep interval, so a 1 Hz
// sweep visits about one slot and kMinIdleHorizon fits in one revolution.
constexpr sim::Duration kProfileSlotWidth = sim::Duration::Seconds(1);

int64_t Over(int64_t value, int threshold) {
  return value > threshold ? value - threshold : 0;
}

void AppendFeature(std::string& out, std::string_view name, int64_t value,
                   int64_t contribution_milli, bool first) {
  if (!first) out += ", ";
  out += name;
  out += '=';
  out += std::to_string(value);
  out += ":+";
  out += std::to_string(contribution_milli);
}

}  // namespace

void BehaviorEngine::Profile::Reset() {
  last_event_ns = INT64_MIN;
  last_alert_ns = INT64_MIN;
  call_rate.Reset();
  short_calls.Reset();
  fanout.Reset();
  user_agents.Reset();
  open_calls.fill(OpenCall{});
  reg_failures.Reset();
  reg_sources.Reset();
}

BehaviorEngine::BehaviorEngine(sim::Duration dedup_window)
    : cooldown_(std::max(kMinAlertCooldown, dedup_window)),
      horizon_(std::max(kMinIdleHorizon, cooldown_)),
      wheel_(kProfileSlotWidth) {}

sim::Time BehaviorEngine::IdleDue(int64_t last_event_ns) const {
  // Reclaimable once now - last_event > IdleHorizon().
  return sim::Time::FromNanos(last_event_ns) + horizon_ +
         sim::Duration::Nanos(1);
}

BehaviorEngine::Profile* BehaviorEngine::Find(ProfileKind kind,
                                              std::string_view key) {
  ProfileTable& table = TableOf(kind);
  const uint32_t index = table.Find(
      common::StringHash{}(key),
      [&](uint32_t i) { return table[i].key == key; });
  return index == kNoEntry ? nullptr : table[index].profile.get();
}

BehaviorEngine::Profile& BehaviorEngine::GetOrCreate(ProfileKind kind,
                                                     std::string_view key,
                                                     int64_t t) {
  if (Profile* existing = Find(kind, key)) return *existing;
  ProfileTable& table = TableOf(kind);
  const uint32_t index = table.Insert(common::StringHash{}(key));
  ProfileEntry& entry = table[index];
  entry.key.assign(key);
  if (!pool_.empty()) {
    entry.profile = std::move(pool_.back());
    pool_.pop_back();
  } else {
    entry.profile = std::make_unique<Profile>();
  }
  wheel_.File(IdleDue(t), index, kind);
  return *entry.profile;
}

void BehaviorEngine::OnCallStart(sim::Time now, std::string_view caller,
                                 std::string_view dest,
                                 std::string_view user_agent,
                                 uint64_t call_hash) {
  if (caller.empty()) return;
  const int64_t t = now.nanos();
  Profile& p = GetOrCreate(kCaller, caller, t);
  p.last_event_ns = t;
  p.call_rate.Touch(t, kCallRateWindow.nanos());
  // Stable across processes, so two engines fed one stream keep identical
  // ring contents.
  if (!dest.empty()) p.fanout.Touch(common::Fnv1a64(dest), t);
  if (!user_agent.empty()) {
    p.user_agents.Touch(common::Fnv1a64(user_agent), t);
  }

  // Open-call slot: a repeated initial INVITE (retransmission) refreshes
  // its start; otherwise take the stalest slot — empty slots are stalest by
  // construction, and when none exist the oldest open call is evicted (its
  // BYE will simply count nothing).
  size_t stalest = 0;
  bool placed = false;
  for (size_t i = 0; i < p.open_calls.size(); ++i) {
    OpenCall& slot = p.open_calls[i];
    if (slot.start_ns != INT64_MIN && slot.hash == call_hash) {
      slot.start_ns = t;
      placed = true;
      break;
    }
    if (slot.start_ns < p.open_calls[stalest].start_ns) stalest = i;
  }
  if (!placed) {
    p.open_calls[stalest].hash = call_hash;
    p.open_calls[stalest].start_ns = t;
  }

  ScoreCaller(p, caller, t);
}

void BehaviorEngine::OnCallEnd(sim::Time now, std::string_view caller,
                               uint64_t call_hash) {
  if (caller.empty()) return;
  const int64_t t = now.nanos();
  Profile* p = Find(kCaller, caller);
  if (p == nullptr) return;  // callee-sent BYE or long-idle caller
  p->last_event_ns = t;
  for (OpenCall& slot : p->open_calls) {
    if (slot.start_ns == INT64_MIN || slot.hash != call_hash) continue;
    if (t - slot.start_ns <= kShortCallMax.nanos()) {
      p->short_calls.Touch(t, kShortCallWindow.nanos());
    }
    slot = OpenCall{};
    break;
  }
  ScoreCaller(*p, caller, t);
}

void BehaviorEngine::OnRegFailure(sim::Time now, std::string_view target,
                                  uint64_t source_hash) {
  if (target.empty()) return;
  const int64_t t = now.nanos();
  Profile& p = GetOrCreate(kTarget, target, t);
  p.last_event_ns = t;
  p.reg_failures.Touch(t, kRegFailureWindow.nanos());
  p.reg_sources.Touch(source_hash, t);
  ScoreTarget(p, target, t);
}

void BehaviorEngine::OnRegSuccess(sim::Time now, std::string_view target) {
  if (target.empty()) return;
  // A successful registration breaks the cracking streak. Only an existing
  // profile matters — success with no failure history builds no state.
  Profile* p = Find(kTarget, target);
  if (p == nullptr) return;
  p->last_event_ns = now.nanos();
  p->reg_failures.Reset();
  p->reg_sources.Reset();
}

void BehaviorEngine::ScoreCaller(Profile& p, std::string_view caller,
                                 int64_t t) {
  const int64_t rate = p.call_rate.Count(t);
  const int64_t shorts = p.short_calls.Count(t);
  const int64_t fanout = p.fanout.Count(t, kFanoutWindow.nanos());
  const int64_t uas = p.user_agents.Count(t, kUaWindow.nanos());

  const int64_t c_rate = kWeightCallRate * Over(rate, kCallRateThreshold);
  const int64_t c_short = kWeightShortCall * Over(shorts, kShortCallThreshold);
  const int64_t c_fanout = kWeightFanout * Over(fanout, kFanoutThreshold);
  const int64_t c_ua = kWeightUa * Over(uas, kUaThreshold);
  const int64_t score = c_rate + c_short + c_fanout + c_ua;
  if (score < kAlertScore) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < cooldown_.nanos()) {
    ++cooldown_suppressed_;
    return;
  }

  // Classification by dominant evidence: burst-shaped features (rate,
  // short-call mass, UA rotation) read as SPIT; a fan-out-led score with a
  // quiet rate is the low-and-slow toll-fraud shape.
  const std::string_view classification =
      c_fanout > c_rate + c_short + c_ua ? kBehaviorTollFraud : kBehaviorSpit;

  std::string detail = "score=";
  detail += std::to_string(score);
  detail += " (";
  AppendFeature(detail, "calls", rate, c_rate, true);
  AppendFeature(detail, "short", shorts, c_short, false);
  AppendFeature(detail, "fanout", fanout, c_fanout, false);
  AppendFeature(detail, "ua", uas, c_ua, false);
  detail += ')';
  Emit(p, "caller|", caller, classification, t, score, std::move(detail));
}

void BehaviorEngine::ScoreTarget(Profile& p, std::string_view target,
                                 int64_t t) {
  const int64_t failures = p.reg_failures.Count(t);
  const int64_t sources = p.reg_sources.Count(t, kRegFailureWindow.nanos());
  const int64_t c_fail =
      kWeightRegFailure * Over(failures, kRegFailureThreshold);
  const int64_t c_src = kWeightRegSource * Over(sources, kRegSourceThreshold);
  const int64_t score = c_fail + c_src;
  if (score < kAlertScore) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < cooldown_.nanos()) {
    ++cooldown_suppressed_;
    return;
  }

  std::string detail = "score=";
  detail += std::to_string(score);
  detail += " (";
  AppendFeature(detail, "reg_failures", failures, c_fail, true);
  AppendFeature(detail, "reg_sources", sources, c_src, false);
  detail += ')';
  Emit(p, "reg|", target, kBehaviorRegCracking, t, score, std::move(detail));
}

void BehaviorEngine::Emit(Profile& p, std::string_view group_prefix,
                          std::string_view entity,
                          std::string_view classification, int64_t t,
                          int64_t score, std::string detail) {
  p.last_alert_ns = t;
  ++alerts_emitted_;
  Alert alert;
  alert.when = sim::Time::FromNanos(t);
  alert.kind = AlertKind::kBehavior;
  alert.classification = std::string(classification);
  alert.machine = std::string(kBehaviorMachine);
  alert.group = std::string(group_prefix);
  alert.group += entity;
  alert.state = score >= kCriticalScore ? "critical" : "elevated";
  alert.detail = std::move(detail);
  alert.trigger = std::string(kBehaviorMachine) +
                  ": weighted profile score crossed the alert threshold";
  if (sink_) sink_(std::move(alert));
}

void BehaviorEngine::Sweep(sim::Time now) {
  const int64_t horizon = horizon_.nanos();
  const int64_t t = now.nanos();
  due_.clear();
  wheel_.Drain(now, [&](const ReclaimWheel::Record& record) {
    due_.push_back(record);
  });
  sweep_examined_ += due_.size();
  size_t reclaimed = 0;
  for (const ReclaimWheel::Record& record : due_) {
    const auto kind = static_cast<ProfileKind>(record.table);
    ProfileTable& table = TableOf(kind);
    ProfileEntry& entry = table[record.item];
    Profile& p = *entry.profile;
    if (p.last_event_ns != INT64_MIN && t - p.last_event_ns <= horizon) {
      wheel_.File(IdleDue(p.last_event_ns), record.item, kind);  // touched
      continue;
    }
    p.Reset();
    pool_.push_back(std::move(entry.profile));
    table.Erase(record.item);
    ++reclaimed;
  }
  if (profile_count() == 0) {
    std::vector<std::unique_ptr<Profile>>().swap(pool_);
    callers_.Release();
    targets_.Release();
    wheel_.Release();
    std::vector<ReclaimWheel::Record>().swap(due_);
  } else if (pool_.size() > reclaimed) {
    // Keep the profiles this sweep reclaimed (the newest, at the back):
    // about what the next interval admits at the current churn.
    pool_.erase(pool_.begin(),
                pool_.end() - static_cast<ptrdiff_t>(reclaimed));
  }
}

size_t BehaviorEngine::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  const auto count = [&](const ProfileTable& table) {
    table.ForEachEntry([&](const ProfileEntry& entry) {
      bytes += entry.key.capacity();
      if (entry.profile != nullptr) bytes += sizeof(Profile);
    });
    bytes += table.MemoryBytes();
  };
  count(callers_);
  count(targets_);
  bytes += pool_.size() * sizeof(Profile) + wheel_.MemoryBytes() +
           due_.capacity() * sizeof(ReclaimWheel::Record);
  return bytes;
}

}  // namespace vids::ids::behavior
