// Behavioral anomaly layer over the keyed-counter fact base (ROADMAP item 4).
//
// The spec machines only catch deviations from the protocol specification;
// attacks that stay protocol-legal — SPIT call blasting, distributed
// registration cracking, low-and-slow toll-fraud fan-out — pass them clean.
// This engine profiles *who* is talking instead of *how*: per-caller and
// per-registration-target sliding-window profiles (call rate, short-call
// mass, destination fan-out, User-Agent diversity, failed-registration
// streaks and their distinct-source spread, call-duration distribution on
// the obs log2 histogram) feed a weighted integer scoring function that
// emits severity-ranked AlertKind::kBehavior alerts carrying the full
// per-feature score breakdown as provenance.
//
// Determinism contract (the shard-equivalence argument, DESIGN.md §16):
// every state transition in this engine is a pure function of the event
// stream — (event time, event content) only. Sweep(now) exists solely to
// reclaim memory: a profile is only reclaimable once it has been idle past
// IdleHorizon(), which dominates every feature window, the alert cooldown
// and the open-call TTL, so a swept-and-recreated profile reacts to the
// next event exactly like a stale retained one (expired windows restart,
// expired distinct-slots are ignored, expired open calls are unclosable,
// the cooldown has lapsed either way). Vids::FeedAggregate feeds it: the
// plain Vids inline from the inspect path, the sharded engine's coordinator
// Vids from the frontier-gated aggregate replay — both instances see the
// same time-ordered event stream, so they emit byte-identical alerts
// regardless of shard count.
//
// Allocation discipline: the steady-state feed path (existing profile) is
// allocation-free — transparent string_view map probes, fixed-slot distinct
// rings, armed-window counters, in-place open-call slots, one histogram
// Record. Profiles are drawn from and recycled to a pool that each sweep
// trims to the profiles it reclaimed (a drained engine frees it, the fact
// base's free-list rule); only first contact with a new entity beyond the
// pool or an actual alert emission allocates.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "vids/alert.h"

namespace vids::ids::behavior {

/// Alert classifications (tests and the soak harness match on these).
inline constexpr std::string_view kBehaviorSpit = "SPIT call burst";
inline constexpr std::string_view kBehaviorTollFraud = "toll-fraud fan-out";
inline constexpr std::string_view kBehaviorRegCracking =
    "registration cracking";
/// Machine name stamped on every behavioral alert.
inline constexpr std::string_view kBehaviorMachine = "behavior-profile";

struct BehaviorConfig {
  /// Master switch: when false no profiles are built and no events are
  /// recorded (the feed calls become no-ops).
  bool enabled = true;

  // --- caller-profile features ---
  /// Calls started (initial INVITEs) per caller within the window
  /// considered normal. A call-center agent places well under this; a SPIT
  /// bot blasts through it in seconds.
  int call_rate_threshold = 15;
  sim::Duration call_rate_window = sim::Duration::Seconds(10);
  /// Completed calls shorter than `short_call_max` within the window
  /// considered normal (mass short calls = answered-and-hung-up spam).
  int short_call_threshold = 12;
  sim::Duration short_call_window = sim::Duration::Seconds(10);
  sim::Duration short_call_max = sim::Duration::Seconds(2);
  /// Distinct destination AORs per caller within the window considered
  /// normal. The long window is what catches low-and-slow toll-fraud
  /// fan-out that keeps its rate under every short-window threshold.
  int fanout_threshold = 16;
  sim::Duration fanout_window = sim::Duration::Seconds(60);
  /// Distinct User-Agent strings per caller within the window considered
  /// normal (a real endpoint has one; rotating stacks are bot behavior).
  int ua_threshold = 4;
  sim::Duration ua_window = sim::Duration::Seconds(60);

  // --- registration-target features ---
  /// Failed REGISTER attempts (401/403/407 finals) against one AOR within
  /// the window considered normal (typos happen; crackers do not stop).
  int reg_failure_threshold = 8;
  sim::Duration reg_failure_window = sim::Duration::Seconds(30);
  /// Distinct failing source addresses within the window considered normal
  /// — the "distributed" in distributed registration cracking.
  int reg_source_threshold = 4;

  // --- scoring (integer milli-units per unit over threshold) ---
  int weight_call_rate = 400;
  int weight_short_call = 100;
  int weight_fanout = 150;
  int weight_ua = 250;
  int weight_reg_failure = 200;
  int weight_reg_source = 150;
  /// Total score at which an alert is emitted / escalates to "critical".
  int alert_score = 1000;
  int critical_score = 3000;
  /// Per-profile re-alert suppression. Must be at least the Vids
  /// alert_dedup_window so the plain engine's dedup table never fires on a
  /// behavioral alert — that keeps the plain and coordinator emission
  /// streams identical by construction.
  sim::Duration alert_cooldown = sim::Duration::Seconds(10);
  /// A call still open after this long can no longer be closed (no
  /// duration recorded). Bounds the open-call slots *and* is part of the
  /// sweep-independence argument (see IdleHorizon).
  sim::Duration open_call_ttl = sim::Duration::Seconds(120);

  /// The profile reclaim horizon: the maximum of every feature window, the
  /// alert cooldown and the open-call TTL. Sweeping a profile idle longer
  /// than this is invisible to future emissions (header comment).
  sim::Duration IdleHorizon() const;
};

class BehaviorEngine {
 public:
  /// Receives every emitted alert. Vids routes this into RaiseAlert (the
  /// sharded coordinator's Vids included).
  using AlertSink = std::function<void(Alert&&)>;

  explicit BehaviorEngine(const BehaviorConfig& config);

  void set_alert_sink(AlertSink sink) { sink_ = std::move(sink); }
  const BehaviorConfig& config() const { return config_; }

  /// An initial INVITE (no To tag) from `caller` to `dest`. `call_hash`
  /// identifies the call for duration tracking (HashKey of the Call-ID);
  /// `user_agent` may be empty when the header is absent.
  void OnCallStart(sim::Time now, std::string_view caller,
                   std::string_view dest, std::string_view user_agent,
                   uint64_t call_hash);
  /// A BYE request from `caller`. Closes the matching open call (if the
  /// caller's profile holds one younger than open_call_ttl) and records
  /// its duration.
  void OnCallEnd(sim::Time now, std::string_view caller, uint64_t call_hash);
  /// A 401/403/407 final to a REGISTER for `target`; `source_hash`
  /// identifies the registering client address.
  void OnRegFailure(sim::Time now, std::string_view target,
                    uint64_t source_hash);
  /// A 2xx final to a REGISTER for `target`: the streak breaks — failure
  /// window and source spread reset (a successful login is not a crack).
  void OnRegSuccess(sim::Time now, std::string_view target);

  /// Reclaims profiles idle past IdleHorizon() into the recycle pool, then
  /// trims the pool to what this sweep reclaimed, or frees it when no
  /// profile is left. Memory-only by the determinism contract — callers
  /// may invoke this on any cadence (the fact-base sweep listener rides
  /// both the packet path and the sharded coordinator's Flush) without
  /// affecting emissions.
  void Sweep(sim::Time now);

  size_t profile_count() const { return callers_.size() + targets_.size(); }
  size_t pool_size() const { return pool_.size(); }
  uint64_t alerts_emitted() const { return alerts_emitted_; }
  uint64_t cooldown_suppressed() const { return cooldown_suppressed_; }
  size_t MemoryBytes() const;

  /// Folds every live profile's call-duration histogram (milliseconds,
  /// caller-terminated calls) plus the durations of already-reclaimed
  /// profiles into `into`.
  void MergeDurationHistogram(obs::Histogram& into) const;

  /// FNV-1a 64 — stable across processes (unlike std::hash), so two
  /// separately-run engines fed the same stream keep identical ring
  /// contents. Used for Call-ID, destination, and User-Agent identities.
  static uint64_t HashKey(std::string_view s) {
    uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  /// Armed-window counter (patterns.cpp BuildWindowCounter semantics): the
  /// first event arms a deadline; events inside increment; the first event
  /// at/after the deadline restarts the window. No timers — expiry is
  /// evaluated lazily against event time, which is what makes the counter
  /// sweep-independent.
  struct WindowCounter {
    int64_t count = 0;
    int64_t deadline_ns = INT64_MIN;
    int64_t window_start_ns = INT64_MIN;
    void Touch(int64_t t, int64_t window_ns) {
      if (t >= deadline_ns) {
        count = 1;
        window_start_ns = t;
        deadline_ns = t + window_ns;
      } else {
        ++count;
      }
    }
    int64_t Count(int64_t t) const { return t < deadline_ns ? count : 0; }
    void Reset() {
      count = 0;
      deadline_ns = INT64_MIN;
      window_start_ns = INT64_MIN;
    }
  };

  /// Fixed-slot distinct-identity window: remembers the last-seen time of
  /// up to N hashed identities; Count(t) = identities seen inside the
  /// window. Eviction replaces the stalest slot (expired slots are stalest
  /// by construction), so an over-threshold set is never silently
  /// undercounted until it exceeds N itself — thresholds must stay well
  /// under N.
  template <size_t N>
  struct DistinctWindow {
    struct Slot {
      uint64_t hash = 0;
      int64_t last_ns = INT64_MIN;
    };
    std::array<Slot, N> slots{};
    void Touch(uint64_t hash, int64_t t) {
      size_t stalest = 0;
      for (size_t i = 0; i < N; ++i) {
        if (slots[i].last_ns != INT64_MIN && slots[i].hash == hash) {
          slots[i].last_ns = t;
          return;
        }
        if (slots[i].last_ns < slots[stalest].last_ns) stalest = i;
      }
      slots[stalest].hash = hash;
      slots[stalest].last_ns = t;
    }
    int64_t Count(int64_t t, int64_t window_ns) const {
      int64_t n = 0;
      for (const Slot& s : slots) {
        if (s.last_ns != INT64_MIN && t - s.last_ns < window_ns) ++n;
      }
      return n;
    }
    void Reset() { slots.fill(Slot{}); }
  };

  struct OpenCall {
    uint64_t hash = 0;
    int64_t start_ns = INT64_MIN;  // INT64_MIN = empty slot
  };

  struct Profile {
    int64_t last_event_ns = INT64_MIN;
    int64_t last_alert_ns = INT64_MIN;
    // Caller features.
    WindowCounter call_rate;
    WindowCounter short_calls;
    DistinctWindow<64> fanout;
    DistinctWindow<8> user_agents;
    std::array<OpenCall, 16> open_calls{};
    obs::Histogram durations;  // ms; observability only, never scored
    // Registration-target features.
    WindowCounter reg_failures;
    DistinctWindow<32> reg_sources;

    void Reset();
  };

  template <typename T>
  using StringKeyed =
      std::unordered_map<std::string, T, common::StringHash, std::equal_to<>>;
  using ProfileMap = StringKeyed<std::unique_ptr<Profile>>;

  /// Existing profile or nullptr — the allocation-free steady-state probe.
  Profile* Find(ProfileMap& map, std::string_view key);
  /// Existing or pool-recycled/new profile (creation path).
  Profile& GetOrCreate(ProfileMap& map, std::string_view key);

  void ScoreCaller(Profile& profile, std::string_view caller, int64_t t);
  void ScoreTarget(Profile& profile, std::string_view target, int64_t t);
  void Emit(Profile& profile, std::string_view group_prefix,
            std::string_view entity, std::string_view classification,
            int64_t t, int64_t score, std::string detail);

  BehaviorConfig config_;
  AlertSink sink_;
  ProfileMap callers_;  // key = caller AOR (From user@host)
  ProfileMap targets_;  // key = registration target AOR (To user@host)
  std::vector<std::unique_ptr<Profile>> pool_;
  obs::Histogram retired_durations_;  // folded in from reclaimed profiles
  uint64_t alerts_emitted_ = 0;
  uint64_t cooldown_suppressed_ = 0;
};

}  // namespace vids::ids::behavior
