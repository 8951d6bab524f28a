// Behavioral anomaly layer over the keyed-counter fact base (ROADMAP item 4).
//
// The spec machines only catch deviations from the protocol specification;
// attacks that stay protocol-legal — SPIT call blasting, distributed
// registration cracking, low-and-slow toll-fraud fan-out — pass them clean.
// This engine profiles *who* is talking instead of *how*: per-caller and
// per-registration-target sliding-window profiles (call rate, short-call
// mass, destination fan-out, User-Agent diversity, failed-registration
// streaks and their distinct-source spread) feed a weighted integer scoring
// function that emits severity-ranked AlertKind::kBehavior alerts carrying
// the full per-feature score breakdown as provenance. The thresholds,
// windows and weights are the constants below; the engine derives its
// cooldown and reclaim horizon from the owning Vids's dedup window.
//
// Determinism contract (the shard-equivalence argument, DESIGN.md §16):
// every state transition in this engine is a pure function of the event
// stream — (event time, event content) only. Sweep(now) exists solely to
// reclaim memory: a profile is only reclaimable once it has been idle past
// IdleHorizon(), which dominates every feature window and the alert
// cooldown, so a swept-and-recreated profile reacts to the next event
// exactly like a stale retained one (expired windows restart, expired
// distinct-slots are ignored, a call open that long can no longer be
// short, the cooldown has lapsed either way). Vids::FeedAggregate feeds
// it: the plain Vids inline from the inspect path, the sharded engine's
// coordinator Vids from the frontier-gated aggregate replay — both
// instances see the same time-ordered event stream, so they emit
// byte-identical alerts regardless of shard count.
//
// Allocation discipline: the steady-state feed path (existing profile) is
// allocation-free — flat-table probes by key hash, fixed-slot distinct
// rings, armed-window counters, in-place open-call slots. Profiles are
// drawn from and recycled to a pool that each sweep trims to the profiles
// it reclaimed (a drained engine frees it and the tables, the fact base's
// free-list rule); only first contact with a new entity beyond the pool or
// an actual alert emission allocates.
//
// Reclamation is O(due): every profile files one record in a timing wheel
// (reclaim_wheel.h) when it is created, due once it has been idle past
// IdleHorizon(), and a sweep examines only the records due at its instant,
// re-filing the profiles touched since.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "sim/time.h"
#include "vids/alert.h"
#include "vids/flat_index.h"
#include "vids/reclaim_wheel.h"

namespace vids::ids::behavior {

/// Alert classifications (tests and the soak harness match on these).
inline constexpr std::string_view kBehaviorSpit = "SPIT call burst";
inline constexpr std::string_view kBehaviorTollFraud = "toll-fraud fan-out";
inline constexpr std::string_view kBehaviorRegCracking =
    "registration cracking";
/// Machine name stamped on every behavioral alert.
inline constexpr std::string_view kBehaviorMachine = "behavior-profile";

// --- caller-profile features ---
/// Calls started (initial INVITEs) per caller within the window considered
/// normal. A call-center agent places well under this; a SPIT bot blasts
/// through it in seconds.
inline constexpr int kCallRateThreshold = 15;
inline constexpr sim::Duration kCallRateWindow = sim::Duration::Seconds(10);
/// Completed calls no longer than kShortCallMax within the window
/// considered normal (mass short calls = answered-and-hung-up spam).
inline constexpr int kShortCallThreshold = 12;
inline constexpr sim::Duration kShortCallWindow = sim::Duration::Seconds(10);
inline constexpr sim::Duration kShortCallMax = sim::Duration::Seconds(2);
/// Distinct destination AORs per caller within the window considered
/// normal. The long window is what catches low-and-slow toll-fraud fan-out
/// that keeps its rate under every short-window threshold.
inline constexpr int kFanoutThreshold = 16;
inline constexpr sim::Duration kFanoutWindow = sim::Duration::Seconds(60);
/// Distinct User-Agent strings per caller within the window considered
/// normal (a real endpoint has one; rotating stacks are bot behavior).
inline constexpr int kUaThreshold = 4;
inline constexpr sim::Duration kUaWindow = sim::Duration::Seconds(60);

// --- registration-target features ---
/// Failed REGISTER attempts (401/403/407 finals) against one AOR within the
/// window considered normal (typos happen; crackers do not stop).
inline constexpr int kRegFailureThreshold = 8;
inline constexpr sim::Duration kRegFailureWindow = sim::Duration::Seconds(30);
/// Distinct failing source addresses within the same window considered
/// normal — the "distributed" in distributed registration cracking.
inline constexpr int kRegSourceThreshold = 4;

// --- scoring (integer milli-units per unit over threshold) ---
inline constexpr int kWeightCallRate = 400;
inline constexpr int kWeightShortCall = 100;
inline constexpr int kWeightFanout = 150;
inline constexpr int kWeightUa = 250;
inline constexpr int kWeightRegFailure = 200;
inline constexpr int kWeightRegSource = 150;
/// Total score at which an alert is emitted / escalates to "critical".
inline constexpr int kAlertScore = 1000;
inline constexpr int kCriticalScore = 3000;

// --- derived bounds (BehaviorEngine::cooldown(), IdleHorizon()) ---
/// The shortest per-profile re-alert cooldown.
inline constexpr sim::Duration kMinAlertCooldown = sim::Duration::Seconds(10);
/// The shortest profile reclaim horizon. Every feature window, and the
/// short-call bound, must lapse inside it (header comment).
inline constexpr sim::Duration kMinIdleHorizon = sim::Duration::Seconds(120);
static_assert(kMinIdleHorizon >= std::max({kCallRateWindow, kShortCallWindow,
                                           kShortCallMax, kFanoutWindow,
                                           kUaWindow, kRegFailureWindow}));

class BehaviorEngine {
 public:
  /// Receives every emitted alert. Vids routes this into RaiseAlert (the
  /// sharded coordinator's Vids included).
  using AlertSink = std::function<void(Alert&&)>;

  /// `dedup_window` is the owning Vids's alert_dedup_window, the one input
  /// the engine cannot know; its cooldown and horizon derive from it.
  explicit BehaviorEngine(sim::Duration dedup_window);

  void set_alert_sink(AlertSink sink) { sink_ = std::move(sink); }

  /// Per-profile re-alert suppression: max(kMinAlertCooldown, the dedup
  /// window). The dedup table would therefore never suppress a behavioral
  /// alert, so Vids passes them around it, and the plain and coordinator
  /// emission streams are identical by construction.
  sim::Duration cooldown() const { return cooldown_; }
  /// The profile reclaim horizon: max(kMinIdleHorizon, cooldown()). Sweeping
  /// a profile idle longer than this is invisible to future emissions
  /// (header comment).
  sim::Duration IdleHorizon() const { return horizon_; }

  /// An initial INVITE (no To tag) from `caller` to `dest`. `call_hash`
  /// identifies the call for short-call tracking (common::Fnv1a64 of the
  /// Call-ID);
  /// `user_agent` may be empty when the header is absent.
  void OnCallStart(sim::Time now, std::string_view caller,
                   std::string_view dest, std::string_view user_agent,
                   uint64_t call_hash);
  /// A BYE request from `caller`. Closes the matching open call (if the
  /// caller's profile holds one), counting it when it was short.
  void OnCallEnd(sim::Time now, std::string_view caller, uint64_t call_hash);
  /// A 401/403/407 final to a REGISTER for `target`; `source_hash`
  /// identifies the registering client address.
  void OnRegFailure(sim::Time now, std::string_view target,
                    uint64_t source_hash);
  /// A 2xx final to a REGISTER for `target`: the streak breaks — failure
  /// window and source spread reset (a successful login is not a crack).
  void OnRegSuccess(sim::Time now, std::string_view target);

  /// Reclaims profiles idle past IdleHorizon() into the recycle pool, then
  /// trims the pool to what this sweep reclaimed, or frees it and the
  /// tables when no profile is left. Examines only the profiles whose
  /// records are due at `now`. Memory-only by the determinism contract —
  /// callers may invoke this on any cadence (the fact-base sweep listener
  /// rides both the packet path and the periodic sweep) without affecting
  /// emissions.
  void Sweep(sim::Time now);

  size_t profile_count() const { return callers_.size() + targets_.size(); }
  size_t pool_size() const { return pool_.size(); }
  /// Profiles all sweeps so far examined: each due record once.
  uint64_t sweep_examined() const { return sweep_examined_; }
  uint64_t alerts_emitted() const { return alerts_emitted_; }
  uint64_t cooldown_suppressed() const { return cooldown_suppressed_; }
  size_t MemoryBytes() const;

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
    // Registration-target features.
    WindowCounter reg_failures;
    DistinctWindow<32> reg_sources;

    void Reset();
  };

  // A profile table entry. A live entry owns its profile; an erased one
  // keeps its key's capacity for the next entry.
  struct ProfileEntry {
    std::string key;
    uint64_t hash = 0;
    std::unique_ptr<Profile> profile;
    uint32_t next_free = kNoEntry;
  };
  using ProfileTable = FlatTable<ProfileEntry>;
  // The tables, as wheel record tags.
  enum ProfileKind : uint32_t { kCaller, kTarget };

  ProfileTable& TableOf(ProfileKind kind) {
    return kind == kCaller ? callers_ : targets_;
  }
  /// Existing profile or nullptr — the allocation-free steady-state probe.
  Profile* Find(ProfileKind kind, std::string_view key);
  /// Existing or pool-recycled/new profile, last touched at `t` (creation
  /// path).
  Profile& GetOrCreate(ProfileKind kind, std::string_view key, int64_t t);
  /// The instant a profile last touched at `last_event_ns` becomes
  /// reclaimable.
  sim::Time IdleDue(int64_t last_event_ns) const;

  void ScoreCaller(Profile& profile, std::string_view caller, int64_t t);
  void ScoreTarget(Profile& profile, std::string_view target, int64_t t);
  void Emit(Profile& profile, std::string_view group_prefix,
            std::string_view entity, std::string_view classification,
            int64_t t, int64_t score, std::string detail);

  sim::Duration cooldown_;
  sim::Duration horizon_;
  AlertSink sink_;
  ProfileTable callers_;  // key = caller AOR (From user@host)
  ProfileTable targets_;  // key = registration target AOR (To user@host)
  // One record per live profile, never stale: a profile dies only when
  // its record comes due.
  ReclaimWheel wheel_;
  std::vector<ReclaimWheel::Record> due_;  // the running sweep's records
  uint64_t sweep_examined_ = 0;
  std::vector<std::unique_ptr<Profile>> pool_;
  uint64_t alerts_emitted_ = 0;
  uint64_t cooldown_suppressed_ = 0;
};

}  // namespace vids::ids::behavior
