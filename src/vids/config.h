// vIDS tunables: detection thresholds and the per-packet processing-cost
// model.
//
// The thresholds are the paper's adjustable variables: N and T1 for INVITE
// flooding (Fig. 4), T for in-flight RTP after a BYE (Fig. 5, "one RTT
// should be long enough"), and Δn/Δt sequence/timestamp gaps for media
// spamming (Fig. 6). The cost model reproduces the measured overheads of
// §7.2–§7.4 on 2006-era hardware: ~50 ms of analysis per SIP message
// (two signaling messages in the INVITE→180 path ⇒ ≈100 ms extra call setup
// delay) and ~1 ms per RTP packet (≈1.5 ms average extra media delay once
// queueing is included).
#pragma once

#include "sim/time.h"

namespace vids::ids {

struct DetectionConfig {
  /// Ablation switch: when false, the δ synchronization channel between the
  /// SIP and RTP machines is not routed, reducing vIDS to two independent
  /// single-protocol monitors. The ablation bench shows exactly which
  /// attacks (BYE DoS, toll fraud) only the cross-protocol view catches.
  bool enable_cross_protocol = true;

  // --- INVITE flooding (Fig. 4) ---
  /// N: INVITEs for one destination within the window considered normal.
  int invite_flood_threshold = 5;
  /// T1: the observation window.
  sim::Duration invite_flood_window = sim::Duration::Seconds(1);

  // --- BYE DoS / toll fraud (Fig. 5) ---
  /// T: grace period after a BYE for in-flight RTP (≈ one RTT).
  sim::Duration bye_inflight_grace = sim::Duration::Millis(120);
  /// How long the RTP machine lingers in (RTP Close) watching for
  /// post-teardown media before the call state is deleted. Must comfortably
  /// exceed VAD silence periods (mean ~1.6 s, heavy tail): a duped caller's
  /// stream pauses with the conversation, and evidence arriving after the
  /// machine retired is evidence missed. 30 s puts the miss probability
  /// below 1e-8 for P.59-style speech at ~40 B of extra state per call.
  sim::Duration rtp_close_linger = sim::Duration::Seconds(30);

  // --- Media spamming (Fig. 6) ---
  /// Δn: sequence-number jump considered a fabricated stream.
  int64_t spam_seq_gap = 50;
  /// Δt: timestamp jump considered a fabricated stream (RTP clock units;
  /// 4000 = 0.5 s at the 8 kHz voice clock).
  int64_t spam_ts_gap = 4000;
  /// Consecutive non-forward sequence numbers before the stream is deemed
  /// raced-ahead by an injected clone (catches low-and-slow injection that
  /// keeps its own gaps small: the *genuine* stream then looks like a
  /// persistent replay).
  int spam_regress_threshold = 3;

  // --- RTP flooding ---
  /// Packets to one media endpoint within the window considered normal
  /// (a G.729 stream is 100 pkt/s, so 1 s at 150 allows jitter bursts).
  int rtp_flood_threshold = 150;
  sim::Duration rtp_flood_window = sim::Duration::Seconds(1);

  // --- Alert deduplication ---
  /// Suppression window for repeated identical alerts (an ongoing flood
  /// would otherwise alert per packet). Dedup signatures older than this
  /// are pruned on sweep, so the signature table is bounded by the alert
  /// rate of the last window rather than by deployment lifetime. The
  /// behavior engine's re-alert cooldown is never shorter than this
  /// (DESIGN.md §16).
  sim::Duration alert_dedup_window = sim::Duration::Seconds(1);

  // --- Call-state lifecycle (paper §5: machines deleted at final state) ---
  /// How often the fact base sweeps for completed/idle state. Sweeps fire
  /// from the packet path *and* from a scheduler-armed periodic event that
  /// stays armed while any tracked state exists, so idle tail state is
  /// reclaimed even when traffic pauses entirely. Once everything is
  /// reclaimed the event is not re-armed: an empty, idle IDS schedules
  /// nothing.
  sim::Duration sweep_interval = sim::Duration::Seconds(1);
  /// Completed Call-IDs are remembered this long so late retransmissions
  /// don't re-open a call as a false "deviation".
  sim::Duration tombstone_ttl = sim::Duration::Seconds(32);
  /// A call group with no traffic for this long is abandoned (e.g. the
  /// one-INVITE-per-Call-ID residue of a flood) and reclaimed.
  sim::Duration call_idle_timeout = sim::Duration::Seconds(180);
  /// Per-destination pattern groups are reclaimed after this idle time.
  sim::Duration keyed_idle_timeout = sim::Duration::Seconds(30);

  // --- DRDoS reflection ---
  /// Unsolicited SIP responses to one host within the window tolerated
  /// (stray retransmits happen; floods do not).
  int drdos_threshold = 10;
  sim::Duration drdos_window = sim::Duration::Seconds(2);
};

/// Simulated CPU cost the inline vIDS host charges per analyzed packet:
/// SIP analysis on the tap's signaling lane, everything else (RTP, RTCP,
/// unparsable bytes) on its media lane.
struct CostModel {
  sim::Duration sip_cost = sim::Duration::Millis(50);
  sim::Duration rtp_cost = sim::Duration::Millis(1);
};

}  // namespace vids::ids
