#include "vids/behavior/behavior.h"

#include <algorithm>
#include <utility>

namespace vids::ids::behavior {

namespace {

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

sim::Duration BehaviorConfig::IdleHorizon() const {
  sim::Duration horizon = call_rate_window;
  for (const sim::Duration d :
       {short_call_window, fanout_window, ua_window, reg_failure_window,
        alert_cooldown, open_call_ttl}) {
    if (d.nanos() > horizon.nanos()) horizon = d;
  }
  return horizon;
}

void BehaviorEngine::Profile::Reset() {
  last_event_ns = INT64_MIN;
  last_alert_ns = INT64_MIN;
  call_rate.Reset();
  short_calls.Reset();
  fanout.Reset();
  user_agents.Reset();
  open_calls.fill(OpenCall{});
  durations = obs::Histogram{};
  reg_failures.Reset();
  reg_sources.Reset();
}

BehaviorEngine::BehaviorEngine(const BehaviorConfig& config)
    : config_(config) {}

BehaviorEngine::Profile* BehaviorEngine::Find(ProfileMap& map,
                                              std::string_view key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : it->second.get();
}

BehaviorEngine::Profile& BehaviorEngine::GetOrCreate(ProfileMap& map,
                                                     std::string_view key) {
  if (Profile* existing = Find(map, key)) return *existing;
  std::unique_ptr<Profile> profile;
  if (!pool_.empty()) {
    profile = std::move(pool_.back());
    pool_.pop_back();
  } else {
    profile = std::make_unique<Profile>();
  }
  return *map.emplace(std::string(key), std::move(profile)).first->second;
}

void BehaviorEngine::OnCallStart(sim::Time now, std::string_view caller,
                                 std::string_view dest,
                                 std::string_view user_agent,
                                 uint64_t call_hash) {
  if (!config_.enabled || caller.empty()) return;
  const int64_t t = now.nanos();
  Profile& p = GetOrCreate(callers_, caller);
  p.last_event_ns = t;
  p.call_rate.Touch(t, config_.call_rate_window.nanos());
  if (!dest.empty()) p.fanout.Touch(HashKey(dest), t);
  if (!user_agent.empty()) p.user_agents.Touch(HashKey(user_agent), t);

  // Open-call slot: a repeated initial INVITE (retransmission) refreshes
  // its start; otherwise take the stalest slot — empty and TTL-expired
  // slots are stalest by construction, and when none exist the oldest open
  // call is evicted (its BYE will simply record nothing).
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
  if (!config_.enabled || caller.empty()) return;
  const int64_t t = now.nanos();
  Profile* p = Find(callers_, caller);
  if (p == nullptr) return;  // callee-sent BYE or long-idle caller
  p->last_event_ns = t;
  const int64_t ttl = config_.open_call_ttl.nanos();
  for (OpenCall& slot : p->open_calls) {
    if (slot.start_ns == INT64_MIN || slot.hash != call_hash) continue;
    if (t - slot.start_ns <= ttl) {
      const int64_t duration_ns = t - slot.start_ns;
      p->durations.Record(duration_ns / 1'000'000);  // ms
      if (duration_ns <= config_.short_call_max.nanos()) {
        p->short_calls.Touch(t, config_.short_call_window.nanos());
      }
    }
    slot = OpenCall{};
    break;
  }
  ScoreCaller(*p, caller, t);
}

void BehaviorEngine::OnRegFailure(sim::Time now, std::string_view target,
                                  uint64_t source_hash) {
  if (!config_.enabled || target.empty()) return;
  const int64_t t = now.nanos();
  Profile& p = GetOrCreate(targets_, target);
  p.last_event_ns = t;
  p.reg_failures.Touch(t, config_.reg_failure_window.nanos());
  p.reg_sources.Touch(source_hash, t);
  ScoreTarget(p, target, t);
}

void BehaviorEngine::OnRegSuccess(sim::Time now, std::string_view target) {
  if (!config_.enabled || target.empty()) return;
  // A successful registration breaks the cracking streak. Only an existing
  // profile matters — success with no failure history builds no state.
  Profile* p = Find(targets_, target);
  if (p == nullptr) return;
  p->last_event_ns = now.nanos();
  p->reg_failures.Reset();
  p->reg_sources.Reset();
}

void BehaviorEngine::ScoreCaller(Profile& p, std::string_view caller,
                                 int64_t t) {
  const int64_t rate = p.call_rate.Count(t);
  const int64_t shorts = p.short_calls.Count(t);
  const int64_t fanout = p.fanout.Count(t, config_.fanout_window.nanos());
  const int64_t uas = p.user_agents.Count(t, config_.ua_window.nanos());

  const int64_t c_rate =
      config_.weight_call_rate * Over(rate, config_.call_rate_threshold);
  const int64_t c_short =
      config_.weight_short_call * Over(shorts, config_.short_call_threshold);
  const int64_t c_fanout =
      config_.weight_fanout * Over(fanout, config_.fanout_threshold);
  const int64_t c_ua = config_.weight_ua * Over(uas, config_.ua_threshold);
  const int64_t score = c_rate + c_short + c_fanout + c_ua;
  if (score < config_.alert_score) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < config_.alert_cooldown.nanos()) {
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
  const int64_t sources =
      p.reg_sources.Count(t, config_.reg_failure_window.nanos());
  const int64_t c_fail =
      config_.weight_reg_failure * Over(failures, config_.reg_failure_threshold);
  const int64_t c_src =
      config_.weight_reg_source * Over(sources, config_.reg_source_threshold);
  const int64_t score = c_fail + c_src;
  if (score < config_.alert_score) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < config_.alert_cooldown.nanos()) {
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
  alert.state = score >= config_.critical_score ? "critical" : "elevated";
  alert.detail = std::move(detail);
  alert.trigger = std::string(kBehaviorMachine) +
                  ": weighted profile score crossed the alert threshold";
  if (sink_) sink_(std::move(alert));
}

void BehaviorEngine::Sweep(sim::Time now) {
  const int64_t horizon = config_.IdleHorizon().nanos();
  const int64_t t = now.nanos();
  size_t reclaimed = 0;
  const auto reclaim = [&](ProfileMap& map) {
    for (auto it = map.begin(); it != map.end();) {
      Profile& p = *it->second;
      if (p.last_event_ns != INT64_MIN && t - p.last_event_ns <= horizon) {
        ++it;
        continue;
      }
      retired_durations_.MergeFrom(p.durations);
      p.Reset();
      pool_.push_back(std::move(it->second));
      ++reclaimed;
      it = map.erase(it);
    }
  };
  reclaim(callers_);
  reclaim(targets_);
  if (profile_count() == 0) {
    std::vector<std::unique_ptr<Profile>>().swap(pool_);
  } else if (pool_.size() > reclaimed) {
    // Keep the profiles this sweep reclaimed (the newest, at the back):
    // about what the next interval admits at the current churn.
    pool_.erase(pool_.begin(),
                pool_.end() - static_cast<ptrdiff_t>(reclaimed));
  }
}

size_t BehaviorEngine::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  const auto count = [&](const ProfileMap& map) {
    for (const auto& [key, profile] : map) {
      bytes += key.capacity() + sizeof(Profile);
    }
  };
  count(callers_);
  count(targets_);
  bytes += pool_.size() * sizeof(Profile);
  return bytes;
}

void BehaviorEngine::MergeDurationHistogram(obs::Histogram& into) const {
  into.MergeFrom(retired_durations_);
  for (const auto& [key, profile] : callers_) {
    into.MergeFrom(profile->durations);
  }
}

}  // namespace vids::ids::behavior
