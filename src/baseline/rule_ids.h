// Baseline 3: a stateful, cross-protocol RULE-MATCHING IDS in the style of
// SCIDIVE (Wu et al., DSN 2004) — the system the paper positions itself
// against (§1, §8).
//
// Like SCIDIVE, it assembles protocol-dependent information from multiple
// packets into aggregated per-session state and runs a Rule Matching
// Engine over it, so it *can* catch cross-protocol attacks it has a rule
// for (e.g. RTP-after-BYE). Its limitation is the one the paper names:
// "this approach has the same disadvantages as that of misuse intrusion
// detection" — every attack needs its own anticipated rule, and there is
// no protocol-specification model, so novel deviations pass silently. The
// ablation bench puts it side by side with the EFSM-based vIDS to show
// exactly that difference.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/datagram.h"
#include "sim/time.h"
#include "sip/message.h"

namespace vids::baseline {

/// Aggregated state of one call (SCIDIVE's "session"), built from packets.
struct SessionState {
  std::string call_id;
  bool invite_seen = false;
  bool established = false;        // 200-for-INVITE observed
  net::IpAddress invite_src;       // network source of the INVITE
  std::optional<sim::Time> bye_at; // first BYE observed
  net::IpAddress bye_src;
  std::optional<net::Endpoint> offer_media;
  std::optional<net::Endpoint> answer_media;
  // Media counters.
  uint64_t rtp_packets = 0;
  uint64_t rtp_after_bye = 0;
  sim::Time last_rtp_at;
  sim::Time last_event_at;
};

struct RuleAlert {
  sim::Time when;
  std::string rule;
  std::string call_id;
  std::string detail;
};

class RuleIds {
 public:
  struct Config {
    /// Grace for in-flight RTP after a BYE before the rtp-after-bye rule
    /// fires (the analog of the vIDS timer T).
    sim::Duration bye_grace = sim::Duration::Millis(120);
    /// INVITE-rate rule: more than this many INVITEs to one destination
    /// AOR within the window fires.
    int invite_threshold = 5;
    sim::Duration invite_window = sim::Duration::Seconds(1);
    /// Sessions idle longer than this are dropped from the state table.
    sim::Duration session_idle_timeout = sim::Duration::Seconds(180);
  };

  RuleIds() : RuleIds(Config{}) {}
  explicit RuleIds(Config config) : config_(config) {}

  /// Aggregates one packet into the session state and runs the rules.
  void Inspect(const net::Datagram& dgram, bool from_outside, sim::Time now);

  const std::vector<RuleAlert>& alerts() const { return alerts_; }
  size_t CountAlerts(std::string_view rule) const;
  size_t session_count() const { return sessions_.size(); }

 private:
  void InspectSip(const sip::Message& message, const net::Datagram& dgram,
                  sim::Time now);
  void InspectRtp(const net::Datagram& dgram, sim::Time now);
  void Raise(sim::Time now, std::string rule, const std::string& call_id,
             std::string detail);
  void Sweep(sim::Time now);

  Config config_;
  std::map<std::string, SessionState> sessions_;        // by Call-ID
  std::map<net::Endpoint, std::string> media_to_call_;
  // invite-rate rule state, per destination AOR.
  struct RateWindow {
    sim::Time start;
    int count = 0;
    bool alerted = false;
  };
  std::map<std::string, RateWindow> invite_rates_;
  std::vector<RuleAlert> alerts_;
  // Dedup: one alert per (rule, call) per ongoing violation.
  std::map<std::string, sim::Time> recent_;
};

}  // namespace vids::baseline
