// Alerts raised by the vIDS Analysis Engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace vids::ids {

enum class AlertKind : uint8_t {
  /// A transition reached a state annotated as an attack state — a known
  /// attack-scenario match (misuse-style evidence, zero false positives by
  /// construction against the modeled patterns).
  kAttackPattern,
  /// Traffic deviated from a protocol specification machine — anomaly-style
  /// evidence capable of flagging previously unseen attacks.
  kSpecDeviation,
  /// A packet that failed to parse as its protocol.
  kMalformed,
  /// A machine definition fired multiple predicates at once (§4.1 wants
  /// them mutually disjoint) — a bug in the ruleset, surfaced loudly.
  kNondeterminism,
  /// The engine itself is unhealthy: the sharded coordinator's watchdog
  /// detected a worker that stopped draining its ring (DESIGN.md §13).
  /// About the monitor, not the traffic — excluded from detection-equality
  /// comparisons and from the soak harness's alerts_total.
  kEngineHealth,
  /// A per-endpoint behavior profile's weighted anomaly score crossed the
  /// alert threshold (DESIGN.md §16) — protocol-legal traffic whose *shape*
  /// is hostile (SPIT bursts, registration cracking, toll-fraud fan-out).
  /// The detail carries the score and its per-feature breakdown; the state
  /// field carries the severity tier.
  kBehavior,
};

std::string_view AlertKindName(AlertKind kind);

/// Classification string of the watchdog's stalled-worker EngineHealth
/// alert (tests and the soak harness match on it).
inline constexpr std::string_view kEngineWorkerStall = "engine worker stall";

struct Alert {
  sim::Time when;
  AlertKind kind = AlertKind::kSpecDeviation;
  /// Attack classification, e.g. "BYE DoS", "INVITE flood"; for deviations a
  /// description of the unexpected event.
  std::string classification;
  std::string machine;   // EFSM instance that raised it
  std::string group;     // call id or per-destination key
  std::string state;     // machine state at the time
  std::string detail;    // free-form evidence (addresses, counters)

  /// The transition that fired the alert, e.g. "SIP: 'BYE' InCall -> Attack".
  std::string trigger;
  /// The call's flight-recorder tail at emission time (≤ 32 rendered
  /// records, oldest first) — the "why": every EFSM transition, sync
  /// channel send, fact-base change and prior alert of this call.
  std::vector<std::string> provenance;

  std::string ToString() const;
  /// Multi-line report: ToString(), the trigger, then provenance indented.
  std::string ProvenanceToString() const;
};

}  // namespace vids::ids
