// Event-level tests of the specification machines (Fig. 2/5) and attack
// patterns (Fig. 4/6): synthetic events, no network.
#include <gtest/gtest.h>

#include <optional>

#include "efsm/engine.h"
#include "vids/classifier.h"
#include "vids/patterns.h"
#include "vids/spec_machines.h"

namespace vids::ids {
namespace {

using efsm::Event;
using efsm::MachineGroup;
using efsm::MachineInstance;

struct RecordingObserver : efsm::Observer {
  std::vector<std::string> attacks;
  std::vector<std::string> deviations;
  int nondeterminism = 0;
  void OnAttackState(const MachineInstance& machine, efsm::StateId state,
                     const Event&) override {
    attacks.push_back(std::string(machine.def().StateName(state)));
  }
  void OnDeviation(const MachineInstance& machine, const Event& event) override {
    deviations.push_back(machine.def().name() + ":" + event.name);
  }
  void OnNondeterminism(const MachineInstance&, const Event&,
                        size_t) override {
    ++nondeterminism;
  }
};

Event SipRequest(std::string method, std::string src_ip = "10.9.0.66",
                 std::string dst_ip = "10.2.0.1") {
  Event event;
  event.name = std::string(kSipEvent);
  event.args["kind"] = std::string("request");
  event.args["method"] = std::move(method);
  event.args["status"] = int64_t{0};
  event.args["src_ip"] = std::move(src_ip);
  event.args["dst_ip"] = std::move(dst_ip);
  event.args["call_id"] = std::string("call-1");
  event.args["from_tag"] = std::string("tag-caller");
  return event;
}

Event SipResponse(int status, std::string method,
                  std::string src_ip = "10.2.0.1",
                  std::string dst_ip = "10.1.0.1") {
  Event event;
  event.name = std::string(kSipEvent);
  event.args["kind"] = std::string("response");
  event.args["method"] = std::move(method);
  event.args["status"] = int64_t{status};
  event.args["src_ip"] = std::move(src_ip);
  event.args["dst_ip"] = std::move(dst_ip);
  event.args["to_tag"] = std::string("tag-callee");
  return event;
}

Event WithSdp(Event event, std::string ip, int port, int pt = 18) {
  event.args["sdp_ip"] = std::move(ip);
  event.args["sdp_port"] = int64_t{port};
  event.args["sdp_pt"] = int64_t{pt};
  event.args["sdp_codec"] = std::string("G729");
  return event;
}

Event Rtp(std::string src_ip, int src_port, std::string dst_ip, int dst_port,
          int64_t ssrc, int64_t seq, int64_t ts, int pt = 18) {
  Event event;
  event.name = std::string(kRtpEvent);
  event.args["src_ip"] = std::move(src_ip);
  event.args["src_port"] = int64_t{src_port};
  event.args["dst_ip"] = std::move(dst_ip);
  event.args["dst_port"] = int64_t{dst_port};
  event.args["ssrc"] = ssrc;
  event.args["seq"] = seq;
  event.args["ts"] = ts;
  event.args["pt"] = int64_t{pt};
  return event;
}

class SpecFixture : public ::testing::Test {
 protected:
  SpecFixture()
      : sip_def_(BuildSipSpecMachine(config_)),
        rtp_def_(BuildRtpSpecMachine(config_)),
        shape_(CallShape(sip_def_, rtp_def_)),
        group_(shape_, "call-1", scheduler_, &observer_),
        sip_(group_.machine(0)),
        rtp_(group_.machine(1)) {}

  static efsm::GroupShape CallShape(const efsm::MachineDef& sip,
                                    const efsm::MachineDef& rtp) {
    efsm::GroupShape shape;
    shape.AddMachine(sip, std::string(kSipMachineName));
    shape.RouteChannel(std::string(kSipToRtpChannel),
                       shape.AddMachine(rtp, std::string(kRtpMachineName)));
    return shape;
  }

  // Drives a normal call up to the established state. Caller media at
  // 10.1.0.10:20000 (offer), callee media at 10.2.0.10:30000 (answer).
  void Establish() {
    group_.DeliverData(
        sip_, WithSdp(SipRequest("INVITE", "10.1.0.1"), "10.1.0.10", 20000));
    group_.DeliverData(sip_, SipResponse(180, "INVITE"));
    group_.DeliverData(
        sip_, WithSdp(SipResponse(200, "INVITE"), "10.2.0.10", 30000));
    group_.DeliverData(sip_, SipRequest("ACK", "10.1.0.1"));
  }

  void Close(std::string bye_src = "10.2.0.10") {
    group_.DeliverData(sip_, SipRequest("BYE", std::move(bye_src)));
    group_.DeliverData(sip_, SipResponse(200, "BYE"));
  }

  Event CallerToCalleeRtp(int64_t seq, int64_t ts, int pt = 18) {
    return Rtp("10.1.0.10", 20000, "10.2.0.10", 30000, 777, seq, ts, pt);
  }
  Event CalleeToCallerRtp(int64_t seq, int64_t ts) {
    return Rtp("10.2.0.10", 30000, "10.1.0.10", 20000, 888, seq, ts);
  }

  DetectionConfig config_;
  sim::Scheduler scheduler_;
  RecordingObserver observer_;
  efsm::MachineDef sip_def_;
  efsm::MachineDef rtp_def_;
  efsm::GroupShape shape_;
  MachineGroup group_;
  MachineInstance& sip_;
  MachineInstance& rtp_;
};

// ------------------------------------------------- SIP spec machine

TEST_F(SpecFixture, NormalCallWalksTheLifecycle) {
  EXPECT_EQ(sip_.StateName(), "INIT");
  group_.DeliverData(
      sip_, WithSdp(SipRequest("INVITE", "10.1.0.1"), "10.1.0.10", 20000));
  EXPECT_EQ(sip_.StateName(), "INVITE Rcvd");
  // δ sync already initialized the RTP machine (Fig. 2(a)).
  EXPECT_EQ(rtp_.StateName(), "RTP Open");

  group_.DeliverData(sip_, SipResponse(100, "INVITE"));
  EXPECT_EQ(sip_.StateName(), "INVITE Rcvd");
  group_.DeliverData(sip_, SipResponse(180, "INVITE"));
  EXPECT_EQ(sip_.StateName(), "Proceeding");
  group_.DeliverData(sip_,
                     WithSdp(SipResponse(200, "INVITE"), "10.2.0.10", 30000));
  EXPECT_EQ(sip_.StateName(), "Answered");
  EXPECT_EQ(rtp_.StateName(), "RTP Ready");
  group_.DeliverData(sip_, SipRequest("ACK", "10.1.0.1"));
  EXPECT_EQ(sip_.StateName(), "Call Established");

  Close();
  EXPECT_EQ(sip_.StateName(), "Closed");
  EXPECT_TRUE(sip_.retired());
  EXPECT_TRUE(observer_.attacks.empty());
  EXPECT_TRUE(observer_.deviations.empty());
  EXPECT_EQ(observer_.nondeterminism, 0);
}

TEST_F(SpecFixture, MediaParametersExportedToGlobals) {
  Establish();
  EXPECT_EQ(group_.global().GetString("g_offer_ip"), "10.1.0.10");
  EXPECT_EQ(group_.global().GetInt("g_offer_port"), 20000);
  EXPECT_EQ(group_.global().GetString("g_answer_ip"), "10.2.0.10");
  EXPECT_EQ(group_.global().GetInt("g_answer_port"), 30000);
  EXPECT_EQ(group_.global().GetString("g_caller_ip"), "10.1.0.1");
}

TEST_F(SpecFixture, RegisterTransactionRetires) {
  group_.DeliverData(sip_, SipRequest("REGISTER", "10.2.0.10"));
  EXPECT_EQ(sip_.StateName(), "Registering");
  group_.DeliverData(sip_, SipResponse(200, "REGISTER"));
  EXPECT_TRUE(sip_.retired());
  // The RTP machine never opened: stays INIT (fact base treats as done).
  EXPECT_EQ(rtp_.state(), rtp_def_.initial_state());
}

TEST_F(SpecFixture, CancelledCallRetiresViaCancelledState) {
  group_.DeliverData(
      sip_, WithSdp(SipRequest("INVITE", "10.1.0.1"), "10.1.0.10", 20000));
  group_.DeliverData(sip_, SipRequest("CANCEL", "10.1.0.1"));
  EXPECT_EQ(sip_.StateName(), "Cancelling");
  group_.DeliverData(sip_, SipResponse(200, "CANCEL"));
  group_.DeliverData(sip_, SipResponse(487, "INVITE"));
  group_.DeliverData(sip_, SipRequest("ACK", "10.1.0.1"));
  EXPECT_TRUE(sip_.retired());
  // RTP machine got the close sync and will retire after T + linger.
  scheduler_.RunUntil(sim::Time{} + config_.bye_inflight_grace +
                      config_.rtp_close_linger + sim::Duration::Seconds(1));
  EXPECT_TRUE(rtp_.retired());
}

TEST_F(SpecFixture, ByeForUnknownCallIsDeviation) {
  group_.DeliverData(sip_, SipRequest("BYE"));
  ASSERT_EQ(observer_.deviations.size(), 1u);
  EXPECT_EQ(sip_.StateName(), "INIT");
}

TEST_F(SpecFixture, UnsolicitedResponseIsDeviation) {
  group_.DeliverData(sip_, SipResponse(200, "INVITE"));
  EXPECT_EQ(observer_.deviations.size(), 1u);
}

// ------------------------------------------------- RTP spec machine

TEST_F(SpecFixture, InSessionMediaFlowsCleanly) {
  Establish();
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  EXPECT_EQ(rtp_.StateName(), "RTP Rcvd");
  group_.DeliverData(rtp_, CallerToCalleeRtp(2, 160));
  group_.DeliverData(rtp_, CalleeToCallerRtp(1, 80));
  EXPECT_EQ(rtp_.StateName(), "RTP Rcvd");
  EXPECT_TRUE(observer_.deviations.empty());
  // Stream bookkeeping: fwd (toward answer) and rev both tracked.
  EXPECT_EQ(rtp_.local().GetInt("l_fwd_ssrc"), 777);
  EXPECT_EQ(rtp_.local().GetInt("l_rev_ssrc"), 888);
}

TEST_F(SpecFixture, MediaBeforeSignalingIsDeviation) {
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  ASSERT_EQ(observer_.deviations.size(), 1u);
  EXPECT_EQ(observer_.deviations[0], "rtp-spec:RTP");
}

TEST_F(SpecFixture, UnauthorizedEndpointIsDeviation) {
  Establish();
  // Media to a port never negotiated in SDP.
  group_.DeliverData(rtp_,
                     Rtp("10.9.0.66", 40000, "10.2.0.10", 31337, 1, 1, 80));
  ASSERT_EQ(observer_.deviations.size(), 1u);
}

TEST_F(SpecFixture, EncodingChangeEntersAttackStateAndRecovers) {
  Establish();
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  group_.DeliverData(rtp_, CallerToCalleeRtp(2, 160, /*pt=*/0));  // PCMU!
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackEncoding);
  EXPECT_EQ(rtp_.StateName(), kAttackEncoding);
  group_.DeliverData(rtp_, CallerToCalleeRtp(3, 240));  // back to G.729
  EXPECT_EQ(rtp_.StateName(), "RTP Rcvd");
  // "encoding restored" and "encoding still wrong" are disjoint, so the
  // recovering packet fires exactly one transition.
  EXPECT_EQ(observer_.nondeterminism, 0);
}

TEST_F(SpecFixture, ByeDosDetectedAfterGraceT) {
  Establish();
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  // A third party (attacker at 10.9.0.66) sends the BYE...
  group_.DeliverData(sip_, SipRequest("BYE", "10.9.0.66"));
  group_.DeliverData(sip_, SipResponse(200, "BYE"));
  EXPECT_EQ(rtp_.StateName(), "RTP rcvd after BYE");

  // In-flight RTP within T is tolerated.
  group_.DeliverData(rtp_, CallerToCalleeRtp(2, 160));
  EXPECT_TRUE(observer_.attacks.empty());

  // After T the machine is in (RTP Close); the genuine caller's continuing
  // stream is the BYE DoS evidence.
  scheduler_.RunUntil(sim::Time{} + config_.bye_inflight_grace +
                      sim::Duration::Millis(10));
  EXPECT_EQ(rtp_.StateName(), "RTP Close");
  group_.DeliverData(rtp_, CallerToCalleeRtp(3, 240));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackByeDos);
}

TEST_F(SpecFixture, TollFraudClassifiedByByeSender) {
  Establish();
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  // The caller's media host stops billing…
  group_.DeliverData(sip_, SipRequest("BYE", "10.1.0.10"));
  group_.DeliverData(sip_, SipResponse(200, "BYE"));
  scheduler_.RunUntil(sim::Time{} + config_.bye_inflight_grace +
                      sim::Duration::Millis(10));
  // …but keeps streaming from the same host: toll fraud, not BYE DoS.
  group_.DeliverData(rtp_, CallerToCalleeRtp(50, 4000));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackTollFraud);
}

TEST_F(SpecFixture, CleanTeardownRaisesNothingAndRetires) {
  Establish();
  group_.DeliverData(rtp_, CallerToCalleeRtp(1, 80));
  Close();
  scheduler_.RunUntil(sim::Time{} + config_.bye_inflight_grace +
                      config_.rtp_close_linger + sim::Duration::Seconds(1));
  EXPECT_TRUE(rtp_.retired());
  EXPECT_TRUE(sip_.retired());
  EXPECT_TRUE(observer_.attacks.empty());
  EXPECT_TRUE(observer_.deviations.empty());
}

// ----------------------------------------------------- attack patterns

class PatternFixture : public ::testing::Test {
 protected:
  /// Builds the one-machine group of `def` the test drives.
  MachineInstance& Instantiate(const efsm::MachineDef& def,
                               std::string name) {
    shape_.AddMachine(def, std::move(name));
    group_.emplace(shape_, "key", scheduler_, &observer_);
    return group_->machine(0);
  }

  DetectionConfig config_;
  sim::Scheduler scheduler_;
  RecordingObserver observer_;
  efsm::GroupShape shape_;
  std::optional<MachineGroup> group_;
};

TEST_F(PatternFixture, InviteFloodFiresAboveThresholdWithinWindow) {
  const auto def = BuildInviteFloodMachine(config_);
  auto& machine = Instantiate(def, "flood");
  // N INVITEs within T1 are normal; the (N+1)-th trips the attack state.
  for (int i = 0; i < config_.invite_flood_threshold; ++i) {
    group_->DeliverData(machine, SipRequest("INVITE"));
    EXPECT_TRUE(observer_.attacks.empty()) << "at INVITE " << i;
  }
  group_->DeliverData(machine, SipRequest("INVITE"));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackInviteFlood);
}

TEST_F(PatternFixture, InviteFloodWindowResetPreventsFalseAlarm) {
  const auto def = BuildInviteFloodMachine(config_);
  auto& machine = Instantiate(def, "flood");
  // N INVITEs, wait out T1, N more: never an attack.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < config_.invite_flood_threshold; ++i) {
      group_->DeliverData(machine, SipRequest("INVITE"));
    }
    scheduler_.RunUntil(scheduler_.Now() + config_.invite_flood_window +
                        sim::Duration::Millis(10));
    EXPECT_EQ(machine.StateName(), "INIT");
  }
  EXPECT_TRUE(observer_.attacks.empty());
}

TEST_F(PatternFixture, InviteFloodReArmsAfterAttackWindow) {
  const auto def = BuildInviteFloodMachine(config_);
  auto& machine = Instantiate(def, "flood");
  for (int i = 0; i <= config_.invite_flood_threshold; ++i) {
    group_->DeliverData(machine, SipRequest("INVITE"));
  }
  EXPECT_EQ(observer_.attacks.size(), 1u);
  scheduler_.RunUntil(scheduler_.Now() + config_.invite_flood_window +
                      sim::Duration::Millis(10));
  EXPECT_EQ(machine.StateName(), "INIT");
  // A second surge alerts again.
  for (int i = 0; i <= config_.invite_flood_threshold; ++i) {
    group_->DeliverData(machine, SipRequest("INVITE"));
  }
  EXPECT_EQ(observer_.attacks.size(), 2u);
}

TEST_F(PatternFixture, MediaSpamFiresOnSeqGap) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 100, 8000));
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 101, 8080));
  EXPECT_TRUE(observer_.attacks.empty());
  // Same SSRC, sequence leaps by more than Δn: fabricated stream.
  group_->DeliverData(
      machine,
      Rtp("a", 1, "b", 2, 777, 101 + config_.spam_seq_gap + 1, 8160));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackMediaSpam);
}

TEST_F(PatternFixture, MediaSpamFiresOnTimestampGap) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 100, 8000));
  group_->DeliverData(
      machine, Rtp("a", 1, "b", 2, 777, 101, 8000 + config_.spam_ts_gap + 1));
  ASSERT_EQ(observer_.attacks.size(), 1u);
}

TEST_F(PatternFixture, MediaSpamToleratesNormalProgressAndSsrcChange) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  // A long normal stream.
  for (int i = 0; i < 500; ++i) {
    group_->DeliverData(machine,
                       Rtp("a", 1, "b", 2, 777, 100 + i, 8000 + 80 * i));
  }
  // A new call reuses the destination port with a different SSRC: re-lock.
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 999, 5, 400));
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 999, 6, 480));
  EXPECT_TRUE(observer_.attacks.empty());
}

TEST_F(PatternFixture, MediaSpamToleratesTalkspurtTimestampJumps) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 100, 8000));
  // A 2 s silence jumps the timestamp by 16000 — far beyond Δt — but the
  // packet opens a talkspurt (marker set, seq contiguous): legitimate VAD.
  auto spurt = Rtp("a", 1, "b", 2, 777, 101, 8000 + 16000);
  spurt.args["marker"] = true;
  group_->DeliverData(machine, spurt);
  EXPECT_TRUE(observer_.attacks.empty());
  // The same jump without the marker is the Fig. 6 fabricated stream.
  group_->DeliverData(machine,
                     Rtp("a", 1, "b", 2, 777, 102, 8000 + 32000));
  ASSERT_EQ(observer_.attacks.size(), 1u);
}

TEST_F(PatternFixture, MediaSpamExcusesLostTalkspurtMarker) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 100, 8000));
  // The marker packet of the next talkspurt was lost: seq gap 2, big
  // unmarked timestamp jump. Legitimate; must not alert.
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 102, 8000 + 16000));
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 103, 8000 + 16080));
  EXPECT_TRUE(observer_.attacks.empty());
}

TEST_F(PatternFixture, MediaSpamCatchesLowAndSlowInjectionViaRegression) {
  const auto def = BuildMediaSpamMachine(config_);
  auto& machine = Instantiate(def, "spam");
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 100, 8000));
  // Stealthy clone: stays within the Δn/Δt windows (seq gap 3 excused)...
  group_->DeliverData(machine, Rtp("a", 1, "b", 2, 777, 103, 8000 + 20000));
  EXPECT_TRUE(observer_.attacks.empty());
  // ...but now the genuine stream's packets regress behind the clone.
  for (int i = 0; i < config_.spam_regress_threshold; ++i) {
    group_->DeliverData(machine,
                       Rtp("a", 1, "b", 2, 777, 101 + i, 8080 + 80 * i));
  }
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackMediaSpam);
}

TEST_F(PatternFixture, RtpFloodFiresAboveRate) {
  const auto def = BuildRtpFloodMachine(config_);
  auto& machine = Instantiate(def, "flood");
  for (int i = 0; i <= config_.rtp_flood_threshold; ++i) {
    group_->DeliverData(machine, Rtp("a", 1, "b", 2, 1, i, 80 * i));
  }
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackRtpFlood);
}

TEST_F(PatternFixture, NormalG729RateNeverTripsRtpFlood) {
  const auto def = BuildRtpFloodMachine(config_);
  auto& machine = Instantiate(def, "flood");
  // 100 pps for 5 seconds, spread over simulated time.
  for (int i = 0; i < 500; ++i) {
    scheduler_.RunUntil(sim::Time{} + sim::Duration::Millis(10) * i);
    group_->DeliverData(machine, Rtp("a", 1, "b", 2, 1, i, 80 * i));
  }
  EXPECT_TRUE(observer_.attacks.empty());
}

TEST_F(PatternFixture, CancelDosFiresOnForeignSource) {
  const auto def = BuildCancelDosMachine(config_);
  auto& machine = Instantiate(def, "cancel");
  group_->DeliverData(machine, SipRequest("INVITE", "10.1.0.1"));
  group_->DeliverData(machine, SipRequest("CANCEL", "10.9.0.66"));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackCancelDos);
}

TEST_F(PatternFixture, CancelFromCallerIsLegitimate) {
  const auto def = BuildCancelDosMachine(config_);
  auto& machine = Instantiate(def, "cancel");
  group_->DeliverData(machine, SipRequest("INVITE", "10.1.0.1"));
  group_->DeliverData(machine, SipRequest("CANCEL", "10.1.0.1"));
  EXPECT_TRUE(observer_.attacks.empty());
  EXPECT_TRUE(machine.retired());
}

TEST_F(PatternFixture, CancelAfterFinalResponseIsOutOfScope) {
  const auto def = BuildCancelDosMachine(config_);
  auto& machine = Instantiate(def, "cancel");
  group_->DeliverData(machine, SipRequest("INVITE", "10.1.0.1"));
  group_->DeliverData(machine, SipResponse(200, "INVITE"));
  EXPECT_TRUE(machine.retired());
}

TEST_F(PatternFixture, HijackFiresOnForeignTagInDialogInvite) {
  const auto def = BuildHijackMachine(config_);
  auto& machine = Instantiate(def, "hijack");
  auto invite = SipRequest("INVITE", "10.1.0.1");
  group_->DeliverData(machine, invite);
  group_->DeliverData(machine, SipResponse(200, "INVITE"));

  // Re-INVITE by the caller (same from-tag): fine.
  group_->DeliverData(machine, invite);
  EXPECT_TRUE(observer_.attacks.empty());
  // Re-INVITE by the callee (its dialog tag): fine.
  auto callee_reinvite = SipRequest("INVITE", "10.2.0.10");
  callee_reinvite.args["from_tag"] = std::string("tag-callee");
  group_->DeliverData(machine, callee_reinvite);
  EXPECT_TRUE(observer_.attacks.empty());

  // INVITE with a tag foreign to the dialog: hijack.
  auto alien = SipRequest("INVITE", "10.9.0.66");
  alien.args["from_tag"] = std::string("tag-attacker");
  group_->DeliverData(machine, alien);
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackHijack);
}

TEST_F(PatternFixture, HijackMachineRetiresOnByeCompletion) {
  const auto def = BuildHijackMachine(config_);
  auto& machine = Instantiate(def, "hijack");
  group_->DeliverData(machine, SipRequest("INVITE", "10.1.0.1"));
  group_->DeliverData(machine, SipResponse(200, "BYE"));
  EXPECT_TRUE(machine.retired());
}

TEST(MachineInventory, EveryShippedDefinitionValidatesCleanly) {
  DetectionConfig config;
  const efsm::MachineDef machines[] = {
      BuildSipSpecMachine(config),   BuildRtpSpecMachine(config),
      BuildInviteFloodMachine(config), BuildMediaSpamMachine(config),
      BuildRtpFloodMachine(config),  BuildCancelDosMachine(config),
      BuildHijackMachine(config),    BuildDrdosMachine(config),
      BuildRtcpByeMachine(config),
  };
  for (const auto& machine : machines) {
    const auto findings = machine.Validate();
    EXPECT_TRUE(findings.empty())
        << machine.name() << ": " << findings.front();
    // And each renders to a non-trivial graph.
    EXPECT_GT(machine.ToDot().size(), 100u) << machine.name();
  }
}

// The fact base checks CallComplete only on calls whose SIP or RTP machine
// just retired. That misses nothing only while "RTP machine back in INIT"
// cannot become true later, i.e. no rtp-spec transition targets INIT; a
// definition that broke this would leave completed calls to idle out.
TEST(MachineInventory, NoRtpSpecTransitionReentersItsInitialState) {
  const efsm::MachineDef rtp = BuildRtpSpecMachine(DetectionConfig{});
  ASSERT_NE(rtp.initial_state(), efsm::kInvalidState);
  ASSERT_FALSE(rtp.transitions().empty());
  for (const auto& transition : rtp.transitions()) {
    EXPECT_NE(transition.to, rtp.initial_state())
        << "'" << transition.event_name << "' from "
        << rtp.StateName(transition.from) << " re-enters "
        << rtp.StateName(rtp.initial_state());
  }
}

TEST_F(PatternFixture, DrdosCountsUnsolicitedResponses) {
  const auto def = BuildDrdosMachine(config_);
  auto& machine = Instantiate(def, "drdos");
  efsm::Event unsolicited;
  unsolicited.name = std::string(kUnsolicitedEvent);
  for (int i = 0; i <= config_.drdos_threshold; ++i) {
    group_->DeliverData(machine, unsolicited);
  }
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], kAttackDrdos);
}

}  // namespace
}  // namespace vids::ids
