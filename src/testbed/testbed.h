// The paper's evaluation testbed (Fig. 7), as a reusable fixture.
//
// Two enterprise networks joined across an Internet cloud:
//
//   [UA a0..aN, proxy A]--hub A--router A--DS1---+
//                                                (cloud: 50 ms, 0.42% loss)
//   [UA b0..bN, proxy B]--hub B--TAP--router B--DS1-+         ^
//                                 `-- vIDS inline             attacker
//
// The vIDS tap sits between network B's edge router and hub, seeing all
// traffic crossing into or out of B. An attacker host lives on the outside.
// The workload reproduces §7.1: network-A UAs call network-B UAs with
// random arrivals and exponentially distributed holding times, G.729 voice
// with VAD, 500-byte SIP messages.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attacks/eavesdropper.h"
#include "attacks/toolkit.h"
#include "net/forwarder.h"
#include "obs/metrics.h"
#include "net/host.h"
#include "net/inline_tap.h"
#include "net/network.h"
#include "rtp/session.h"
#include "sip/proxy.h"
#include "sip/user_agent.h"
#include "vids/ids.h"

namespace vids::testbed {

struct TestbedConfig {
  uint64_t seed = 42;
  int uas_per_network = 10;

  /// Install the vIDS inspector on the tap (false = the paper's
  /// "without vIDS" arm: same topology, plain forwarding).
  bool vids_enabled = true;
  ids::DetectionConfig detection{};
  ids::CostModel cost{};

  rtp::CodecProfile codec = rtp::G729();
  rtp::TalkspurtModel talkspurt{};
  /// Callee ringing time before the 200 OK.
  sim::Duration answer_delay = sim::Duration::Millis(500);
  /// Digest authentication on REGISTER: every UA gets the password
  /// "pw-<user>" and the registrars challenge (§3.1's observation — some
  /// attacks persist regardless — is demonstrated against this).
  bool enable_registration_auth = false;
  sip::TimerConfig sip_timers{};
  /// Record a receiver QoS sample every N RTP packets (Fig. 10 series).
  uint32_t qos_sample_every = 50;

  net::LinkConfig lan = net::FastEthernet();
  net::LinkConfig wan = net::Ds1();
  net::LinkConfig cloud = net::InternetCloud();
};

struct WorkloadConfig {
  /// Mean pause between a UA's calls (exponential).
  sim::Duration mean_intercall = sim::Duration::Seconds(150);
  /// Mean call holding time (exponential).
  sim::Duration mean_duration = sim::Duration::Seconds(90);
};

/// One IP phone: host + SIP user agent + per-call RTP sessions.
class UaNode {
 public:
  UaNode(sim::Scheduler& scheduler, net::Host& host,
         sip::UserAgent::Config ua_config, rtp::CodecProfile codec,
         rtp::TalkspurtModel talkspurt, uint32_t qos_sample_every,
         common::Stream& rng, obs::MetricsRegistry* metrics = nullptr);

  sip::UserAgent& ua() { return ua_; }
  net::Host& host() { return host_; }

  /// Receiver-side QoS over all of this UA's finished and active sessions.
  std::vector<rtp::QosSample> AllQosSamples() const;
  rtp::ReceiverStats AggregateReceiverStats() const;

 private:
  sim::Scheduler& scheduler_;
  net::Host& host_;
  rtp::CodecProfile codec_;
  rtp::TalkspurtModel talkspurt_;
  uint32_t qos_sample_every_;
  common::Stream rng_;
  obs::MetricsRegistry* metrics_;  // environment registry; may be null
  sip::UserAgent ua_;
  std::map<std::string, std::unique_ptr<rtp::MediaSession>> media_;
  // Retired sessions' stats are folded here so history survives teardown.
  rtp::ReceiverStats retired_stats_;
  std::vector<rtp::QosSample> retired_samples_;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  /// Starts §7.1's random call workload: every network-A UA independently
  /// places calls to random network-B UAs.
  void StartWorkload(WorkloadConfig workload);

  /// Attaches an additional passive monitor to the tap's mirror port (the
  /// built-in eavesdropper keeps seeing traffic too). Used to run baseline
  /// IDSs side by side for the ablation study.
  void AddMonitor(net::InlineTap::Monitor monitor) {
    extra_monitors_.push_back(std::move(monitor));
  }

  /// Advances simulated time to `at`.
  void RunUntil(sim::Time at) { scheduler_.RunUntil(at); }
  void RunFor(sim::Duration d) { scheduler_.RunUntil(scheduler_.Now() + d); }

  sim::Scheduler& scheduler() { return scheduler_; }
  /// Environment-side metrics (sim.*, sip.tx.*, rtp.*). Deliberately a
  /// separate registry from Vids::metrics(): the IDS registry stays a pure
  /// function of the inspected packet stream so trace replay reproduces it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  net::Network& network() { return *network_; }
  ids::Vids* vids() { return vids_.get(); }
  net::InlineTap& tap() { return *tap_; }
  net::Host& attacker_host() { return *attacker_host_; }
  attacks::AttackToolkit& attacker() { return *attacker_; }
  attacks::Eavesdropper& eavesdropper() { return eavesdropper_; }

  std::vector<std::unique_ptr<UaNode>>& uas_a() { return uas_a_; }
  std::vector<std::unique_ptr<UaNode>>& uas_b() { return uas_b_; }
  sip::Proxy& proxy_a() { return *proxy_a_; }
  sip::Proxy& proxy_b() { return *proxy_b_; }
  net::Endpoint proxy_a_endpoint() const;
  net::Endpoint proxy_b_endpoint() const;

  const TestbedConfig& config() const { return config_; }

  /// All completed call records across network-A callers.
  std::vector<sip::CallRecord> CompletedCalls() const;

 private:
  struct Enterprise {
    net::Forwarder* router = nullptr;
    net::Forwarder* hub = nullptr;
    net::Host* proxy_host = nullptr;
  };

  void BuildTopology();
  UaNode& AddUa(Enterprise& enterprise, const std::string& name,
                net::IpAddress ip, const std::string& domain,
                net::Endpoint proxy, std::vector<std::unique_ptr<UaNode>>& out);

  TestbedConfig config_;
  obs::MetricsRegistry metrics_;  // declared before users so it dies last
  sim::Scheduler scheduler_;
  common::Stream rng_;
  std::unique_ptr<net::Network> network_;

  Enterprise a_;
  Enterprise b_;
  net::Forwarder* internet_ = nullptr;
  net::InlineTap* tap_ = nullptr;
  std::unique_ptr<ids::Vids> vids_;
  attacks::Eavesdropper eavesdropper_;

  std::unique_ptr<sip::Proxy> proxy_a_;
  std::unique_ptr<sip::Proxy> proxy_b_;
  std::vector<std::unique_ptr<UaNode>> uas_a_;
  std::vector<std::unique_ptr<UaNode>> uas_b_;

  net::Host* attacker_host_ = nullptr;
  std::unique_ptr<attacks::AttackToolkit> attacker_;
  /// One self-rescheduling call loop per network-A caller (StartWorkload).
  /// Owned here so the scheduled closures can refer to their loop without
  /// keeping it alive themselves.
  std::vector<std::unique_ptr<std::function<void()>>> call_loops_;
  std::vector<net::InlineTap::Monitor> extra_monitors_;
};

}  // namespace vids::testbed
