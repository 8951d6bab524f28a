// Soak/churn load harness: proves the IDS's tracked state stays bounded
// under sustained traffic.
//
// The driver synthesizes a long mixed workload against a Vids instance —
// benign calls with Poisson arrivals and exponentially distributed holding
// times, interleaved attack scenarios (BYE DoS, CANCEL DoS, INVITE flood,
// RTP flood, DRDoS reflection), late retransmissions of closed calls, and
// a mid-run pause where arrivals stop entirely (idle state must die with
// zero packets arriving). While the workload runs it samples every tracked
// quantity — CallStateFactBase::MemoryBytes(), each map's cardinality,
// the alert-dedup signature table, the retained alert history — at fixed
// simulated-time intervals; CheckPlateau() then fails the run if any
// quantity kept growing instead of plateauing.
//
// Two drive modes: SoakDriver feeds Vids::Inspect() directly (fast; the
// default for the million-call runs) and RunTapSoak() drives the full
// testbed so the same sampling covers the deployed tap path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "vids/config.h"

namespace vids::ids {
class Vids;
class ShardedIds;
class TraceLog;
}

namespace vids::load {

struct SoakConfig {
  uint64_t seed = 1;
  /// Benign calls to generate before arrivals stop.
  uint64_t total_calls = 100'000;
  /// Poisson arrival rate of benign calls.
  double calls_per_second = 200.0;
  /// Mean call holding time (exponential, clamped to [1s, 10x mean]).
  sim::Duration mean_hold = sim::Duration::Seconds(30);
  /// RTP packets sent in each direction over a call's lifetime, spread
  /// evenly across the holding time (consecutive seq / +160 timestamps, so
  /// clean traffic never trips the media-spam predicates).
  int rtp_packets_per_call = 16;
  /// Benign callee AORs to spread INVITEs over — keeps the per-destination
  /// benign INVITE rate far below the flood threshold.
  int callee_aors = 500;
  /// Every Nth benign call is chased by one attack burst, rotating through
  /// BYE DoS, CANCEL DoS, INVITE flood, RTP flood and DRDoS reflection.
  /// 0 disables attacks.
  uint64_t attack_every = 200;
  /// Benign caller AORs the clean workload rotates through. The default
  /// (1) keeps the historical single-caller ("alice") stream; the
  /// call-center FP soak spreads the same aggregate rate over many callers
  /// so every per-entity behavior profile stays under threshold.
  int caller_aors = 1;
  /// Behavioral-attack scenario bursts (DESIGN.md §16), scheduled at fixed
  /// simulated times alongside the benign workload; 0 disables. Every
  /// dialog and registration in these bursts is protocol-legal — the spec
  /// machines run them to clean terminal states — so only the per-entity
  /// behavior profiles can raise on them.
  int spit_bursts = 0;        // one caller blasting rapid short calls
  int reg_crack_bursts = 0;   // distributed REGISTER cracking vs one AOR
  int toll_fraud_bursts = 0;  // low-and-slow premium-destination fan-out
  /// Probability that a closed call retransmits its final 200-for-BYE
  /// 2 s later (inside the tombstone TTL: must be dropped silently).
  double late_retransmit_prob = 0.05;
  /// Probability that the retransmission instead arrives *after* the
  /// tombstone expired — worst-case input that re-opens deviant state,
  /// which the idle sweep must then reclaim.
  double post_ttl_retransmit_prob = 0.005;
  /// Arrivals pause for `pause` once this fraction of calls started; with
  /// no packets flowing, only the periodic sweep can reclaim state.
  double pause_at_fraction = 0.5;
  sim::Duration pause = sim::Duration::Seconds(120);
  /// Simulated-time sampling interval.
  sim::Duration sample_every = sim::Duration::Seconds(30);
  /// Cap handed to Vids::set_max_retained_alerts (0 = unlimited).
  size_t max_retained_alerts = 10'000;
  ids::DetectionConfig detection{};
  /// 0 = classic single-threaded drive straight into Vids::Inspect().
  /// N >= 1 routes the same workload through a ShardedIds with N worker
  /// threads; samples then cover the summed shard state plus the
  /// coordinator's owner map and replay state.
  int shards = 0;
  /// Pipeline span sampling period handed to ShardedIds (ignored when
  /// shards == 0): 1-in-N ingested packets carries a latency span. The
  /// default matches ShardedConfig; 0 disables sampling so the soak can
  /// also prove the untraced path, and 1 spans every packet.
  uint32_t trace_sample_period = 1024;
  /// When set, every generated datagram is also appended here (with its
  /// feed time and direction) — the capture hook behind perfbench's
  /// workload captures and the offline round-trip test: a soak run's
  /// recording, written with capture::PcapWriter and replayed through
  /// capture::RunSource, must reproduce the online run's exact alert list
  /// and metric snapshot. Must outlive the driver. Not owned.
  ids::TraceLog* capture = nullptr;
};

/// One fixed-interval snapshot of everything that must stay bounded.
struct SoakSample {
  sim::Time when;
  uint64_t calls_started = 0;
  uint64_t packets_inspected = 0;
  size_t memory_bytes = 0;   // CallStateFactBase::MemoryBytes()
  size_t calls = 0;          // calls_ cardinality
  size_t keyed = 0;          // keyed_str_ + keyed_bin_
  size_t tombstones = 0;     // tombstones_
  size_t media_index = 0;    // media_index_
  size_t alert_sigs = 0;     // recent_alerts_ (dedup signatures)
  size_t alerts_retained = 0;  // alerts() history after capping
  uint64_t alerts_total = 0;   // "vids.alerts" counter (monotonic)
};

/// Verdict for one tracked quantity. `reference` is its maximum over the
/// 10%..25% stretch of samples (past warmup, well before the end); `peak`
/// is its maximum over the second half. Bounded means peak <= limit where
/// limit = 2*reference + slack — a leak that grows through the whole run
/// fails this even though the post-drain final sample trivially shrinks.
struct PlateauFinding {
  std::string name;
  double reference = 0.0;
  double peak = 0.0;
  double limit = 0.0;
  bool bounded = true;
};

struct SoakReport {
  std::vector<SoakSample> samples;
  uint64_t calls_started = 0;
  uint64_t packets_inspected = 0;
  uint64_t alerts_total = 0;
  std::vector<PlateauFinding> findings;
  bool bounded = true;  // every finding bounded
  /// Wall-clock nanoseconds spent driving the workload (scheduler start to
  /// final pipeline drain) and the resulting ingest throughput. These are
  /// real-time measurements, so they vary with the host; the simulated
  /// samples above do not.
  int64_t wall_ns = 0;
  double packets_per_second = 0.0;

  /// Human-readable sample table + verdicts.
  std::string Summary() const;
  /// Samples as CSV (header + one row per sample).
  std::string Csv() const;
};

/// Screens a sample series for unbounded growth (see PlateauFinding).
/// `max_retained_alerts` adds an absolute-cap finding for the alert
/// history when nonzero. Needs >= 8 samples to judge; with fewer, every
/// finding comes back bounded=false so a too-short run cannot pass.
std::vector<PlateauFinding> CheckPlateau(const std::vector<SoakSample>& samples,
                                         size_t max_retained_alerts = 0);

/// Direct-drive soak: synthesizes the workload as datagrams fed straight
/// into Vids::Inspect() on a private scheduler (config.shards == 0), or
/// into a ShardedIds pipeline with worker threads (config.shards >= 1).
class SoakDriver {
 public:
  explicit SoakDriver(SoakConfig config);
  ~SoakDriver();

  /// Runs the full workload to completion (arrivals, pause, drain) and
  /// returns the sampled report. In sharded mode the engine is flushed and
  /// stopped before this returns.
  SoakReport Run();

  /// The engine under test. vids() is only valid in classic mode
  /// (config.shards == 0); sharded() is null there and set otherwise.
  ids::Vids& vids() { return *vids_; }
  ids::ShardedIds* sharded() { return sharded_.get(); }
  sim::Scheduler& scheduler() { return scheduler_; }

 private:
  struct Impl;
  sim::Scheduler scheduler_;
  std::unique_ptr<ids::Vids> vids_;
  std::unique_ptr<ids::ShardedIds> sharded_;
  std::unique_ptr<Impl> impl_;
};

/// Tap-mode soak: runs the real testbed workload (UAs, proxies, tap) with
/// periodic toolkit attacks for `duration`, sampling the tapped vIDS at
/// the same fixed intervals. Integration-scale (hundreds of calls), not
/// the million-call driver.
SoakReport RunTapSoak(const SoakConfig& config, sim::Duration duration);

}  // namespace vids::load
