#include "vids/ids.h"

#include "common/log.h"
#include "common/strings.h"

namespace vids::ids {

Vids::Vids(sim::Scheduler& scheduler, DetectionConfig detection,
           CostModel cost)
    : scheduler_(scheduler),
      detection_(detection),
      cost_(cost),
      fact_base_(scheduler, detection, this, &registry_),
      behavior_(detection_.alert_dedup_window),
      m_packets_(&registry_.GetCounter("vids.packets")),
      m_sip_packets_(&registry_.GetCounter("vids.sip_packets")),
      m_rtp_packets_(&registry_.GetCounter("vids.rtp_packets")),
      m_rtcp_packets_(&registry_.GetCounter("vids.rtcp_packets")),
      m_unknown_packets_(&registry_.GetCounter("vids.unknown_packets")),
      m_orphan_rtp_(&registry_.GetCounter("vids.orphan_rtp")),
      // Same slot the engine updates (GetCounter is idempotent by name).
      m_transitions_(&registry_.GetCounter("efsm.transitions")),
      m_alerts_(&registry_.GetCounter("vids.alerts")),
      m_alerts_suppressed_(&registry_.GetCounter("vids.alerts_suppressed")),
      m_alert_sigs_(&registry_.GetGauge("vids.alert_sigs")),
      m_behavior_profiles_(&registry_.GetGauge("vids.behavior_profiles")),
      sig_wheel_(detection_.sweep_interval) {
  // The fact base's sweep doubles as the dedup table's expiry tick and the
  // behavior layer's profile-reclaim tick, so both tables are reclaimed on
  // the same time-driven cadence as the call state — including during
  // traffic silence, since the sweep keeps re-arming while either table
  // holds anything. Both expire by time alone: a signature's window
  // decides its duplicates whether or not it was erased yet, and
  // BehaviorEngine::Sweep is memory-only by its determinism contract, so
  // riding an arbitrary cadence is safe.
  fact_base_.set_sweep_listener(
      [this](sim::Time now, std::span<const efsm::MachineGroup* const>) {
        ExpireAlertSigs(now);
        behavior_.Sweep(now);
        m_behavior_profiles_->Set(
            static_cast<int64_t>(behavior_.profile_count()));
        return !sigs_.empty() || behavior_.profile_count() != 0;
      });
  // Behavioral alerts skip the dedup table. The engine's own cooldown
  // (derived from the dedup window, never shorter) means the table would
  // never suppress one — the emission stream is the engine's alone, so the
  // sharded coordinator's instance reproduces it byte-for-byte.
  behavior_.set_alert_sink([this](Alert&& alert) {
    RaiseAlert(std::move(alert));
  });
}

Vids::Stats Vids::stats() const {
  Stats s;
  s.packets = m_packets_->value();
  s.sip_packets = m_sip_packets_->value();
  s.rtp_packets = m_rtp_packets_->value();
  s.rtcp_packets = m_rtcp_packets_->value();
  s.unknown_packets = m_unknown_packets_->value();
  s.orphan_rtp = m_orphan_rtp_->value();
  s.transitions = m_transitions_->value();
  s.alerts_suppressed = m_alerts_suppressed_->value();
  return s;
}

net::InlineTap::Verdict Vids::Inspect(const net::Datagram& dgram,
                                      bool from_outside) {
  using Lane = net::InlineTap::Lane;
  m_packets_->Inc();
  fact_base_.Sweep(scheduler_.Now());

  const auto packet = classifier_.Classify(dgram, from_outside);
  if (!packet) {
    m_unknown_packets_->Inc();
    if (AdmitAlert(
            {.origin = kClassifierOrigin | dgram.dst.PackedKey(),
             .classification = efsm::ArgKey::Intern("unparsable packet").id()},
            scheduler_.Now())) {
      RaiseAlert(Alert{.when = scheduler_.Now(),
                       .kind = AlertKind::kMalformed,
                       .classification = "unparsable packet",
                       .machine = "classifier",
                       .group = dgram.dst.ToString(),
                       .state = "",
                       .detail = "from " + dgram.src.ToString(),
                       .trigger = "",
                       .provenance = {}});
    }
    return {cost_.rtp_cost, Lane::kMedia};  // rejecting junk is cheap
  }
  if (packet->proto == PacketProto::kSip) {
    m_sip_packets_->Inc();
    HandleSip(*packet);
    return {cost_.sip_cost, Lane::kSignaling};
  }
  if (packet->proto == PacketProto::kRtcp) {
    m_rtcp_packets_->Inc();
    HandleRtcp(*packet);
    return {cost_.rtp_cost, Lane::kMedia};
  }
  m_rtp_packets_->Inc();
  HandleRtp(*packet);
  return {cost_.rtp_cost, Lane::kMedia};
}

void Vids::HandleRtcp(const ClassifiedPacket& packet) {
  // Fold RTCP onto its media endpoint's pattern group so the ghost-media
  // machine sees both streams.
  const auto media_endpoint = RtcpMediaEndpoint(packet.dst);
  if (!media_endpoint) return;
  auto& media_group = fact_base_.GetOrCreateMediaGroup(*media_endpoint);
  media_group.DeliverData(media_group.machine(kMediaRtcpBye), packet.event);
}

void Vids::HandleSip(const ClassifiedPacket& packet) {
  if (packet.call_key.empty()) {
    // The alert names no group, so one signature covers every destination.
    if (AdmitAlert(
            {.origin = kClassifierOrigin,
             .classification =
                 efsm::ArgKey::Intern("SIP message without Call-ID").id()},
            scheduler_.Now())) {
      RaiseAlert(Alert{.when = scheduler_.Now(),
                       .kind = AlertKind::kMalformed,
                       .classification = "SIP message without Call-ID",
                       .machine = "classifier",
                       .group = "",
                       .state = "",
                       .detail = "",
                       .trigger = "",
                       .provenance = {}});
    }
    return;
  }
  bool created = false;
  efsm::MachineGroup* call = fact_base_.AdmitCall(packet.call_key, created);
  if (call == nullptr) return;  // late retransmission of a completed call
  efsm::MachineGroup& group = *call;

  // A response opening a "call" is unsolicited: nobody here sent the
  // request. Feed the per-victim DRDoS counter (§3.1's reflection attack);
  // the SIP machine's INIT-state deviation also fires.
  const std::string* kind = packet.event.ArgStr(argkey::kKind);
  const bool is_response = kind != nullptr && *kind == "response";
  if (created && is_response) {
    // The DRDoS key is the victim IP from the packet itself, never an
    // event arg that could be absent.
    net::IpAddress::FormatBuffer victim;
    EmitAggregate({.kind = AggregateKind::kUnsolicitedResponse,
                   .key = packet.dst.ip.Format(victim),
                   .src_ip = packet.src.ip,
                   .dst_ip = packet.dst.ip});
  }

  // Distribute to the call's machines: specification first (it exports the
  // media parameters), then the per-call attack patterns.
  for (const size_t index : {kCallSip, kCallCancelDos, kCallHijack}) {
    group.DeliverData(group.machine(index), packet.event);
  }

  // INVITE requests additionally drive the per-destination flood counter.
  if (!is_response && !packet.dest_key.empty()) {
    const std::string* method = packet.event.ArgStr(argkey::kMethod);
    if (method != nullptr && *method == "INVITE") {
      EmitAggregate({.kind = AggregateKind::kInviteRequest,
                     .key = packet.dest_key,
                     .src_ip = packet.src.ip,
                     .dst_ip = packet.dst.ip});
    }
  }

  // Entity-keyed behavior profiles see call starts/ends and REGISTER
  // finals (DESIGN.md §16). Same placement as the aggregate feeds above:
  // after the tombstone gate, so a late retransmission of a completed call
  // never re-feeds a profile.
  FeedBehavior(packet, is_response);

  // Only packets that actually carried SDP can move the media index. The
  // group's offer/answer globals persist for the call's whole life, so
  // refreshing on every packet would let an SDP-less BYE re-assert a stale
  // binding and steal an endpoint back from the call that re-negotiated it.
  if (packet.event.ArgStr(argkey::kSdpIp) != nullptr) {
    RefreshMediaIndex(group);
  }
}

void Vids::FeedBehavior(const ClassifiedPacket& packet, bool is_response) {
  const std::string* method = packet.event.ArgStr(argkey::kMethod);
  if (method == nullptr) return;
  if (!is_response && *method == "INVITE" &&
      packet.event.ArgStr(argkey::kToTag) == nullptr) {
    // Initial INVITE (no To tag): a call start attributed to the caller.
    const std::string* from = packet.event.ArgStr(argkey::kFrom);
    if (from == nullptr) return;
    const std::string* ua = packet.event.ArgStr(argkey::kUserAgent);
    EmitAggregate(
        {.kind = AggregateKind::kBehaviorCallStart,
         .key = *from,
         .peer = packet.dest_key,
         .ua = ua != nullptr ? std::string_view(*ua) : std::string_view(),
         .aux = common::Fnv1a64(packet.call_key)});
    return;
  }
  if (!is_response && *method == "BYE") {
    const std::string* from = packet.event.ArgStr(argkey::kFrom);
    if (from == nullptr) return;
    EmitAggregate({.kind = AggregateKind::kBehaviorCallEnd,
                   .key = *from,
                   .aux = common::Fnv1a64(packet.call_key)});
    return;
  }
  if (is_response && *method == "REGISTER") {
    // Final REGISTER responses drive the target's failed-auth streak; the
    // method arg of a response is its CSeq method. The profiled entity is
    // the To AOR (the account), the failing "source" the registering
    // client — the response's destination address.
    const auto status = packet.event.ArgInt(argkey::kStatus);
    const std::string* to = packet.event.ArgStr(argkey::kTo);
    if (!status || to == nullptr) return;
    const bool auth_failure =
        *status == 401 || *status == 403 || *status == 407;
    const bool success = *status >= 200 && *status < 300;
    if (!auth_failure && !success) return;
    EmitAggregate({.kind = auth_failure ? AggregateKind::kBehaviorRegFailure
                                        : AggregateKind::kBehaviorRegSuccess,
                   .key = *to,
                   .aux = static_cast<uint64_t>(packet.dst.ip.bits())});
  }
}

void Vids::EmitAggregate(const AggregateEvent& event) {
  if (aggregate_hook_) {
    aggregate_hook_(event);
  } else {
    FeedAggregate(event);
  }
}

void Vids::FeedAggregate(const AggregateEvent& event) {
  const sim::Time now = scheduler_.Now();
  const size_t profiles = behavior_.profile_count();
  switch (event.kind) {
    case AggregateKind::kUnsolicitedResponse:
    case AggregateKind::kInviteRequest: {
      const bool invite = event.kind == AggregateKind::kInviteRequest;
      efsm::MachineGroup& group =
          invite ? fact_base_.GetOrCreateInviteFlood(event.key)
                 : fact_base_.GetOrCreateDrdosGroup(event.dst_ip);
      efsm::MachineInstance& machine =
          group.machine(invite ? kInviteFloodMachine : kDrdosMachine);
      // The window counter reads no argument; OnAttackState reads the two
      // addresses for the alert detail. Event names and dotted quads fit
      // the small-string buffer, so refilling the event never allocates.
      net::IpAddress::FormatBuffer ip;
      aggregate_scratch_.name.assign(invite ? kSipEvent : kUnsolicitedEvent);
      aggregate_scratch_.args.Slot(0, argkey::kSrcIp)
          .emplace<std::string>(event.src_ip.Format(ip));
      aggregate_scratch_.args.Slot(1, argkey::kDstIp)
          .emplace<std::string>(event.dst_ip.Format(ip));
      group.DeliverData(machine, aggregate_scratch_);
      return;
    }
    case AggregateKind::kBehaviorCallStart:
      behavior_.OnCallStart(now, event.key, event.peer, event.ua, event.aux);
      break;
    case AggregateKind::kBehaviorCallEnd:
      behavior_.OnCallEnd(now, event.key, event.aux);
      break;
    case AggregateKind::kBehaviorRegFailure:
      behavior_.OnRegFailure(now, event.key, event.aux);
      break;
    case AggregateKind::kBehaviorRegSuccess:
      behavior_.OnRegSuccess(now, event.key);
      break;
  }
  // A new profile can outlive every call: the sweep must run until it is
  // reclaimed.
  if (behavior_.profile_count() > profiles) fact_base_.KeepSweepArmed();
}

void Vids::RefreshMediaIndex(efsm::MachineGroup& group) {
  const auto index_one = [&](efsm::ArgKey ip_key, efsm::ArgKey port_key) {
    const efsm::Value& ip = group.global().Get(ip_key);
    const auto port = group.global().GetInt(port_key);
    const auto* ip_str = std::get_if<std::string>(&ip);
    if (ip_str == nullptr || !port) return;
    if (const auto addr = net::IpAddress::Parse(*ip_str)) {
      fact_base_.IndexMedia(
          net::Endpoint{*addr, static_cast<uint16_t>(*port)}, group);
    }
  };
  index_one(gkey::kOfferIp, gkey::kOfferPort);
  index_one(gkey::kAnswerIp, gkey::kAnswerPort);
}

void Vids::HandleRtp(const ClassifiedPacket& packet) {
  // Cross-protocol path: media belonging to a monitored call goes to that
  // call's RTP specification machine. The media index resolves the packed
  // binary endpoint straight to the owning group — no string keys.
  if (auto* group = fact_base_.FindGroupByMedia(packet.dst)) {
    group->DeliverData(group->machine(kCallRtp), packet.event);
  } else {
    m_orphan_rtp_->Inc();
  }

  // Per-endpoint patterns see every media packet, monitored call or not.
  auto& media_group = fact_base_.GetOrCreateMediaGroup(packet.dst);
  for (const size_t index : {kMediaSpam, kMediaRtpFlood, kMediaRtcpBye}) {
    media_group.DeliverData(media_group.machine(index), packet.event);
  }
}

// ------------------------------------------------- Analysis Engine side

void Vids::OnTransition(const efsm::MachineInstance& machine,
                        const efsm::Transition& transition,
                        const efsm::Event&) {
  // Counting happens in the engine ("efsm.transitions" — the same slot
  // stats() reads); here we only remember the transition so an immediately
  // following OnAttackState can name its trigger.
  last_transition_ = &transition;
  last_transition_machine_ = &machine;
  if (transition_trace_) transition_trace_(machine, transition);
}

void Vids::AttachProvenance(Alert& alert,
                            const efsm::MachineInstance& machine) {
  if (last_transition_ != nullptr && last_transition_machine_ == &machine) {
    const efsm::Transition& t = *last_transition_;
    const efsm::MachineDef& def = machine.def();
    alert.trigger = machine.name() + ": '" + t.event_name + "' " +
                    std::string(def.StateName(t.from)) + " -> " +
                    std::string(def.StateName(t.to));
    if (!t.label.empty()) alert.trigger += " [" + t.label + "]";
  }
  const efsm::MachineGroup& group = machine.group();
  alert.provenance =
      group.ExplainFlight(obs::FlightRecorder::kCapacity,
                          &CallStateFactBase::DecodeFactRecord);
  // Stamp the alert itself into the ring afterwards, so this alert's
  // provenance holds only the events that *preceded* it, while any later
  // alert of the same call sees this one in its history.
  obs::Record rec;
  rec.type = obs::RecordType::kAlert;
  rec.when_ns = alert.when.nanos();
  rec.machine = machine.index_in_group();
  rec.a = efsm::ArgKey::Intern(alert.classification).id();
  rec.aux = static_cast<uint64_t>(alert.kind);
  group.flight_recorder().Record(rec);
}

void Vids::OnAttackState(const efsm::MachineInstance& machine,
                         efsm::StateId state, const efsm::Event& event) {
  // Attack states with self-loops (floods) re-enter per packet: suppress
  // repeats before building the Alert so the steady state allocates nothing.
  const std::string_view classification = machine.def().StateName(state);
  const sim::Time now = scheduler_.Now();
  if (!AdmitAlert(KeyOf(machine, classification), now)) return;

  Alert alert;
  alert.when = now;
  alert.kind = AlertKind::kAttackPattern;
  alert.classification = std::string(classification);
  alert.machine = machine.def().name();
  alert.group = machine.group().name();
  alert.state = std::string(classification);
  const std::string* src = event.ArgStr(argkey::kSrcIp);
  const std::string* dst = event.ArgStr(argkey::kDstIp);
  alert.detail = "src=" + (src != nullptr ? *src : std::string("?")) +
                 " dst=" + (dst != nullptr ? *dst : std::string("?"));
  AttachProvenance(alert, machine);
  RaiseAlert(std::move(alert));
}

std::string_view Vids::DescribeDeviation(const efsm::MachineInstance& machine,
                                         const efsm::Event& event,
                                         std::string& scratch) {
  const bool at_init = machine.state() == machine.def().initial_state();
  if (machine.def().name() == "sip-spec" && at_init) {
    const std::string* kind = event.ArgStr(argkey::kKind);
    if (kind != nullptr && *kind == "response") {
      return "unsolicited response (possible DRDoS reflection)";
    }
    const std::string* method = event.ArgStr(argkey::kMethod);
    scratch = "dialog-less " +
              (method != nullptr ? *method : std::string("request")) +
              " (possible spoofed teardown)";
    return scratch;
  }
  if (machine.def().name() == "rtp-spec") {
    if (at_init) return "media before signaling";
    return "unauthorized media (endpoint not negotiated in SDP)";
  }
  scratch = "unexpected " + event.name + " in state " +
            std::string(machine.StateName());
  return scratch;
}

void Vids::OnDeviation(const efsm::MachineInstance& machine,
                       const efsm::Event& event) {
  // A machine stuck out-of-spec deviates on every packet of an ongoing
  // stream; suppress repeats before any alert string is assembled.
  std::string scratch;
  const std::string_view classification =
      DescribeDeviation(machine, event, scratch);
  const sim::Time now = scheduler_.Now();
  if (!AdmitAlert(KeyOf(machine, classification), now)) return;

  Alert alert;
  alert.when = now;
  alert.kind = AlertKind::kSpecDeviation;
  alert.classification = std::string(classification);
  alert.machine = machine.def().name();
  alert.group = machine.group().name();
  alert.state = std::string(machine.StateName());
  const std::string* src = event.ArgStr(argkey::kSrcIp);
  alert.detail = "event=" + event.name +
                 " src=" + (src != nullptr ? *src : std::string("?"));
  // A deviation is the *absence* of a transition: the trigger is the
  // deviation record the engine just stamped, not last_transition_.
  last_transition_ = nullptr;
  alert.trigger = "deviation: '" + event.name + "' in state " +
                  std::string(machine.StateName());
  AttachProvenance(alert, machine);
  RaiseAlert(std::move(alert));
}

void Vids::OnNondeterminism(const efsm::MachineInstance& machine,
                            const efsm::Event& event, size_t enabled_count) {
  constexpr std::string_view kClassification = "non-disjoint predicates";
  const sim::Time now = scheduler_.Now();
  if (!AdmitAlert(KeyOf(machine, kClassification), now)) return;

  Alert alert;
  alert.when = now;
  alert.kind = AlertKind::kNondeterminism;
  alert.classification = std::string(kClassification);
  alert.machine = machine.def().name();
  alert.group = machine.group().name();
  alert.state = std::string(machine.StateName());
  alert.detail = std::to_string(enabled_count) + " transitions enabled on " +
                 event.name;
  last_transition_ = nullptr;  // fired before OnTransition: no trigger yet
  alert.trigger = "non-disjoint predicates on '" + event.name + "'";
  AttachProvenance(alert, machine);
  RaiseAlert(std::move(alert));
}

Vids::AlertKey Vids::KeyOf(const efsm::MachineInstance& machine,
                           std::string_view classification) {
  return {.origin = machine.group().serial(),
          .machine = machine.index_in_group(),
          .classification = efsm::ArgKey::Intern(classification).id()};
}

bool Vids::AdmitAlert(const AlertKey& key, sim::Time now) {
  const uint64_t hash = key.origin ^ (uint64_t{key.machine} << 48) ^
                        (uint64_t{key.classification} << 32);
  uint32_t index =
      sigs_.Find(hash, [&](uint32_t i) { return sigs_[i].key == key; });
  if (index != kNoEntry) {
    if (now - sigs_[index].last < detection_.alert_dedup_window) {
      m_alerts_suppressed_->Inc();
      return false;
    }
  } else {
    index = sigs_.Insert(hash);
    sigs_[index].key = key;
    sig_wheel_.File(now + detection_.alert_dedup_window, index, 0);
    m_alert_sigs_->Set(static_cast<int64_t>(sigs_.size()));
    // A malformed packet's signature may be the only state there is.
    fact_base_.KeepSweepArmed();
  }
  sigs_[index].last = now;
  return true;
}

void Vids::ExpireAlertSigs(sim::Time now) {
  sig_due_.clear();
  sig_wheel_.Drain(now, [&](const ReclaimWheel::Record& record) {
    sig_due_.push_back(record.item);
  });
  const sim::Duration window = detection_.alert_dedup_window;
  for (const uint32_t index : sig_due_) {
    const sim::Time end = sigs_[index].last + window;
    if (end <= now) {  // now - last >= window: no longer a duplicate
      sigs_.Erase(index);
    } else {
      sig_wheel_.File(end, index, 0);  // restamped since it was filed
    }
  }
  if (sigs_.empty()) {
    // Back to the freshly built footprint, as a drained fact base is.
    sigs_.Release();
    sig_wheel_.Release();
    std::vector<uint32_t>().swap(sig_due_);
  }
  m_alert_sigs_->Set(static_cast<int64_t>(sigs_.size()));
}

size_t Vids::AlertSigBytes() const {
  return sigs_.MemoryBytes() + sig_wheel_.MemoryBytes() +
         sig_due_.capacity() * sizeof(uint32_t);
}

void Vids::RaiseAlert(Alert alert) {
  m_alerts_->Inc();
  // Per-classification counters are created lazily here — alert emission is
  // already off the clean steady-state path, and the classification set is
  // small and bounded by the modeled scenarios.
  registry_.GetCounter("alerts." + alert.classification).Inc();
  VIDS_INFO_C("vids") << alert.ToString();
  if (alert_callback_) alert_callback_(alert);
  alerts_.push_back(std::move(alert));
  if (max_retained_alerts_ != 0 && alerts_.size() > max_retained_alerts_) {
    // Drop the oldest half so trimming amortizes to O(1) per alert.
    alerts_.erase(alerts_.begin(),
                  alerts_.begin() +
                      static_cast<ptrdiff_t>(alerts_.size() / 2));
  }
}

size_t Vids::CountAlerts(AlertKind kind) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.kind == kind) ++count;
  }
  return count;
}

size_t Vids::CountAlerts(std::string_view classification) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.classification == classification) ++count;
  }
  return count;
}

}  // namespace vids::ids
