#include "testbed/testbed.h"

#include "common/log.h"

namespace vids::testbed {

namespace {
constexpr const char* kDomainA = "a.example.com";
constexpr const char* kDomainB = "b.example.com";
}  // namespace

// ------------------------------------------------------------- UaNode

UaNode::UaNode(sim::Scheduler& scheduler, net::Host& host,
               sip::UserAgent::Config ua_config, rtp::CodecProfile codec,
               rtp::TalkspurtModel talkspurt, uint32_t qos_sample_every,
               common::Stream& rng, obs::MetricsRegistry* metrics)
    : scheduler_(scheduler),
      host_(host),
      codec_(std::move(codec)),
      talkspurt_(talkspurt),
      qos_sample_every_(qos_sample_every),
      rng_(rng.Fork(std::string(host.name()) + ":ua")),
      metrics_(metrics),
      ua_(scheduler, host, std::move(ua_config)) {
  if (metrics_ != nullptr) ua_.transaction_layer().AttachMetrics(*metrics_);
  ua_.set_media_start([this](const sip::MediaSpec& spec) {
    rtp::MediaSession::Config media_config;
    media_config.local_port = spec.local_rtp.port;
    media_config.remote = spec.remote_rtp;
    media_config.codec = codec_;
    media_config.talkspurt = talkspurt_;
    media_config.sample_every = qos_sample_every_;
    auto session = std::make_unique<rtp::MediaSession>(
        scheduler_, host_, media_config, rng_);
    if (metrics_ != nullptr) session->AttachMetrics(*metrics_);
    session->Start();
    media_[spec.call_id] = std::move(session);
  });
  ua_.set_media_stop([this](const std::string& call_id) {
    const auto it = media_.find(call_id);
    if (it == media_.end()) return;
    // Fold the session's receive-side history into the retired aggregate.
    const auto& stats = it->second->receiver_stats();
    retired_stats_.packets_received += stats.packets_received;
    retired_stats_.packets_lost += stats.packets_lost;
    retired_stats_.packets_misordered += stats.packets_misordered;
    retired_stats_.ssrc_mismatches += stats.ssrc_mismatches;
    retired_stats_.total_delay_seconds += stats.total_delay_seconds;
    retired_stats_.max_delay_seconds =
        std::max(retired_stats_.max_delay_seconds, stats.max_delay_seconds);
    const auto& samples = it->second->samples();
    retired_samples_.insert(retired_samples_.end(), samples.begin(),
                            samples.end());
    media_.erase(it);
  });
}

std::vector<rtp::QosSample> UaNode::AllQosSamples() const {
  std::vector<rtp::QosSample> out = retired_samples_;
  for (const auto& [call_id, session] : media_) {
    const auto& samples = session->samples();
    out.insert(out.end(), samples.begin(), samples.end());
  }
  return out;
}

rtp::ReceiverStats UaNode::AggregateReceiverStats() const {
  rtp::ReceiverStats out = retired_stats_;
  for (const auto& [call_id, session] : media_) {
    const auto& stats = session->receiver_stats();
    out.packets_received += stats.packets_received;
    out.packets_lost += stats.packets_lost;
    out.packets_misordered += stats.packets_misordered;
    out.ssrc_mismatches += stats.ssrc_mismatches;
    out.total_delay_seconds += stats.total_delay_seconds;
    out.max_delay_seconds =
        std::max(out.max_delay_seconds, stats.max_delay_seconds);
  }
  return out;
}

// ------------------------------------------------------------ Testbed

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), rng_(config_.seed, "testbed") {
  scheduler_.AttachMetrics(metrics_);
  // Stamp every log line with simulated time while this testbed is alive.
  common::Log::SetClock([this] { return scheduler_.Now().nanos(); });
  network_ = std::make_unique<net::Network>(scheduler_, config_.seed);
  BuildTopology();
}

Testbed::~Testbed() {
  // The clock closure captures `this`; drop it before the scheduler dies.
  common::Log::SetClock(nullptr);
}

net::Endpoint Testbed::proxy_a_endpoint() const {
  return net::Endpoint{a_.proxy_host->ip(), sip::kDefaultSipPort};
}
net::Endpoint Testbed::proxy_b_endpoint() const {
  return net::Endpoint{b_.proxy_host->ip(), sip::kDefaultSipPort};
}

UaNode& Testbed::AddUa(Enterprise& enterprise, const std::string& name,
                       net::IpAddress ip, const std::string& domain,
                       net::Endpoint proxy,
                       std::vector<std::unique_ptr<UaNode>>& out) {
  auto& host = network_->AddNode<net::Host>(*network_, name, ip);
  auto [to_host, to_hub] =
      network_->ConnectDuplex(*enterprise.hub, host, config_.lan);
  host.SetUplink(to_hub);
  enterprise.hub->AddRoute(net::Subnet(ip, 32), to_host);

  sip::UserAgent::Config ua_config;
  ua_config.user = name;
  ua_config.domain = domain;
  ua_config.outbound_proxy = proxy;
  ua_config.answer_delay = config_.answer_delay;
  ua_config.timers = config_.sip_timers;
  if (config_.enable_registration_auth) ua_config.password = "pw-" + name;
  out.push_back(std::make_unique<UaNode>(
      scheduler_, host, std::move(ua_config), config_.codec,
      config_.talkspurt, config_.qos_sample_every, rng_, &metrics_));
  return *out.back();
}

void Testbed::BuildTopology() {
  net::Network& network = *network_;

  // Core elements.
  internet_ = &network.AddNode<net::Forwarder>("internet");
  a_.router = &network.AddNode<net::Forwarder>("router-a");
  a_.hub = &network.AddNode<net::Forwarder>("hub-a");
  b_.router = &network.AddNode<net::Forwarder>("router-b");
  b_.hub = &network.AddNode<net::Forwarder>("hub-b");
  tap_ = &network.AddNode<net::InlineTap>("vids-tap", scheduler_);

  const net::Subnet subnet_a(net::IpAddress(10, 1, 0, 0), 16);
  const net::Subnet subnet_b(net::IpAddress(10, 2, 0, 0), 16);
  const net::Subnet subnet_atk(net::IpAddress(10, 9, 0, 0), 16);

  // Network A: hub ↔ router ↔ internet.
  {
    auto [hub_to_router, router_to_hub] =
        network.ConnectDuplex(*a_.hub, *a_.router, config_.lan);
    a_.hub->SetDefaultRoute(hub_to_router);
    a_.router->AddRoute(subnet_a, router_to_hub);
  }
  {
    net::Link& router_to_inet =
        network.Connect(*a_.router, *internet_, config_.wan);
    a_.router->SetDefaultRoute(router_to_inet);
    net::Link& inet_to_router =
        network.Connect(*internet_, *a_.router, config_.cloud);
    internet_->AddRoute(subnet_a, inet_to_router);
  }

  // Network B: hub ↔ TAP ↔ router ↔ internet.
  {
    net::Link& hub_to_tap =
        network.Connect(*b_.hub, tap_->port_from_inside(), config_.lan);
    b_.hub->SetDefaultRoute(hub_to_tap);
    net::Link& router_to_tap =
        network.Connect(*b_.router, tap_->port_from_outside(), config_.lan);
    b_.router->AddRoute(subnet_b, router_to_tap);
    net::Link& tap_to_hub =
        network.MakeLink("vids-tap->hub-b", *b_.hub, config_.lan);
    net::Link& tap_to_router =
        network.MakeLink("vids-tap->router-b", *b_.router, config_.lan);
    tap_->SetLinks(tap_to_hub, tap_to_router);
  }
  {
    net::Link& router_to_inet =
        network.Connect(*b_.router, *internet_, config_.wan);
    b_.router->SetDefaultRoute(router_to_inet);
    net::Link& inet_to_router =
        network.Connect(*internet_, *b_.router, config_.cloud);
    internet_->AddRoute(subnet_b, inet_to_router);
  }

  // Attacker on the outside.
  {
    attacker_host_ = &network.AddNode<net::Host>(
        *network_, "attacker", net::IpAddress(10, 9, 0, 66));
    auto [to_attacker, to_inet] =
        network.ConnectDuplex(*internet_, *attacker_host_, config_.lan);
    attacker_host_->SetUplink(to_inet);
    internet_->AddRoute(subnet_atk, to_attacker);
    attacker_ =
        std::make_unique<attacks::AttackToolkit>(scheduler_, *attacker_host_);
  }

  // Proxies.
  sip::DomainDirectory directory;
  a_.proxy_host = &network.AddNode<net::Host>(*network_, "proxy-a",
                                              net::IpAddress(10, 1, 0, 1));
  b_.proxy_host = &network.AddNode<net::Host>(*network_, "proxy-b",
                                              net::IpAddress(10, 2, 0, 1));
  directory[kDomainA] = net::Endpoint{a_.proxy_host->ip(), 5060};
  directory[kDomainB] = net::Endpoint{b_.proxy_host->ip(), 5060};
  for (auto [enterprise, host, domain] :
       {std::tuple{&a_, a_.proxy_host, kDomainA},
        std::tuple{&b_, b_.proxy_host, kDomainB}}) {
    auto [to_host, to_hub] =
        network.ConnectDuplex(*enterprise->hub, *host, config_.lan);
    host->SetUplink(to_hub);
    enterprise->hub->AddRoute(net::Subnet(host->ip(), 32), to_host);
    sip::Proxy::Config proxy_config;
    proxy_config.domain = domain;
    proxy_config.directory = directory;
    proxy_config.timers = config_.sip_timers;
    if (config_.enable_registration_auth) {
      proxy_config.require_registration_auth = true;
      for (int i = 0; i < config_.uas_per_network; ++i) {
        const std::string user =
            (enterprise == &a_ ? "a" : "b") + std::to_string(i);
        proxy_config.user_passwords[user] = "pw-" + user;
      }
    }
    auto proxy =
        std::make_unique<sip::Proxy>(scheduler_, *host, proxy_config);
    proxy->transaction_layer().AttachMetrics(metrics_);
    if (enterprise == &a_) {
      proxy_a_ = std::move(proxy);
    } else {
      proxy_b_ = std::move(proxy);
    }
  }

  // User agents: a0..aN in A, b0..bN in B.
  for (int i = 0; i < config_.uas_per_network; ++i) {
    AddUa(a_, "a" + std::to_string(i), net::IpAddress(10, 1, 0, 10 + i),
          kDomainA, proxy_a_endpoint(), uas_a_);
    AddUa(b_, "b" + std::to_string(i), net::IpAddress(10, 2, 0, 10 + i),
          kDomainB, proxy_b_endpoint(), uas_b_);
  }

  // Register all UAs at time zero.
  for (const auto& ua : uas_a_) ua->ua().Register();
  for (const auto& ua : uas_b_) ua->ua().Register();

  // The IDS and the attacker's wiretap share the mirror port.
  if (config_.vids_enabled) {
    vids_ = std::make_unique<ids::Vids>(scheduler_, config_.detection,
                                        config_.cost);
    tap_->SetInspector(vids_->MakeInspector());
  }
  tap_->SetMonitor([this](const net::Datagram& dgram, bool from_outside) {
    eavesdropper_.Feed(dgram, from_outside);
    for (const auto& monitor : extra_monitors_) monitor(dgram, from_outside);
  });
}

void Testbed::StartWorkload(WorkloadConfig workload) {
  for (size_t i = 0; i < uas_a_.size(); ++i) {
    UaNode* caller = uas_a_[i].get();
    auto caller_rng = std::make_shared<common::Stream>(
        rng_.Fork("workload:" + std::to_string(i)));
    // Self-rescheduling call loop per caller, owned by call_loops_.
    auto* place_next =
        call_loops_.emplace_back(std::make_unique<std::function<void()>>())
            .get();
    *place_next = [this, caller, caller_rng, place_next, workload] {
      const auto pause = sim::Duration::FromSeconds(
          caller_rng->NextExponential(workload.mean_intercall.ToSeconds()));
      scheduler_.ScheduleAfter(pause, [this, caller, caller_rng, place_next,
                                       workload] {
        const auto callee_index =
            caller_rng->NextInRange(0, uas_b_.size() - 1);
        const auto duration = sim::Duration::FromSeconds(
            caller_rng->NextExponential(workload.mean_duration.ToSeconds()));
        caller->ua().PlaceCall(
            uas_b_[callee_index]->ua().address_of_record(), duration);
        (*place_next)();
      });
    };
    (*place_next)();
  }
}

std::vector<sip::CallRecord> Testbed::CompletedCalls() const {
  std::vector<sip::CallRecord> out;
  for (const auto& ua : uas_a_) {
    const auto& records = ua->ua().completed_calls();
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

}  // namespace vids::testbed
