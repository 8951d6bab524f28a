// Targeted failure injection: lose exactly one specific message and verify
// the protocol machinery recovers — the reliability mechanisms RFC 3261
// prescribes for UDP, each exercised in isolation:
//   lost INVITE  → timer A retransmission
//   lost 200 OK  → UAS-core 2xx retransmission (§13.3.1.4)
//   lost ACK     → retransmitted 2xx answered with a fresh ACK (§13.2.2.4)
//   lost BYE     → timer E retransmission
// And the vIDS must ride through all of it without false alarms.
#include <gtest/gtest.h>

#include "sip/message.h"
#include "testbed/testbed.h"

namespace vids::testbed {
namespace {

// Matches the first datagram whose SIP content satisfies `want`; drops it.
class DropOnce {
 public:
  using Predicate = std::function<bool(const sip::Message&)>;
  explicit DropOnce(Predicate want) : want_(std::move(want)) {}

  net::Link::DropFilter AsFilter() {
    return [this](const net::Datagram& dgram) {
      if (done_) return false;
      const auto message = sip::Message::Parse(dgram.payload);
      if (!message || !want_(*message)) return false;
      done_ = true;
      return true;
    };
  }
  bool fired() const { return done_; }

 private:
  Predicate want_;
  bool done_ = false;
};

class InjectionFixture : public ::testing::Test {
 protected:
  InjectionFixture() {
    TestbedConfig config;
    config.seed = 99;
    config.uas_per_network = 2;
    config.cloud.loss_rate = 0.0;  // only the injected loss
    bed_ = std::make_unique<Testbed>(config);
    bed_->RunFor(sim::Duration::Seconds(2));
  }

  // Installs `filter` on every link (the drop predicate aims at the target
  // message, whichever hop it crosses first).
  void InstallEverywhere(DropOnce& dropper) {
    for (const auto& link : bed_->network().links()) {
      link->SetDropFilter(dropper.AsFilter());
    }
  }

  // Places one a0→b0 call of 10 s and runs well past teardown.
  sip::CallRecord RunOneCall() {
    auto& caller = *bed_->uas_a()[0];
    caller.ua().PlaceCall(bed_->uas_b()[0]->ua().address_of_record(),
                          sim::Duration::Seconds(10));
    bed_->RunFor(sim::Duration::Seconds(60));
    EXPECT_EQ(caller.ua().completed_calls().size(), 1u);
    EXPECT_EQ(caller.ua().active_call_count(), 0);
    return caller.ua().completed_calls().empty()
               ? sip::CallRecord{}
               : caller.ua().completed_calls()[0];
  }

  void ExpectNoFalsePositives() {
    EXPECT_EQ(bed_->vids()->CountAlerts(ids::AlertKind::kAttackPattern), 0u);
    EXPECT_EQ(bed_->vids()->CountAlerts(ids::AlertKind::kSpecDeviation), 0u);
  }

  std::unique_ptr<Testbed> bed_;
};

TEST_F(InjectionFixture, LostInviteIsRetransmitted) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsRequest() && message.method() == sip::Method::kInvite;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  EXPECT_FALSE(record.failed);
  // Setup took at least one timer-A period (T1 = 500 ms) longer.
  EXPECT_GT(record.SetupDelay()->ToMillis(), 500.0);
  ExpectNoFalsePositives();
}

TEST_F(InjectionFixture, Lost180OnlyDelaysRingingPerception) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsResponse() && message.status() == 180;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  // 1xx are unacknowledged and may be lost; the call still answers.
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.answered.has_value());
  ExpectNoFalsePositives();
}

TEST_F(InjectionFixture, Lost200IsRetransmittedByUasCore) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsResponse() && message.status() == 200 &&
           message.method() == sip::Method::kInvite;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  EXPECT_FALSE(record.failed);
  ASSERT_TRUE(record.answered.has_value());
  // Answer arrived roughly one T1 late, not 32 s late.
  EXPECT_LT((*record.answered - record.started).ToSeconds(), 3.0);
  ExpectNoFalsePositives();
}

TEST_F(InjectionFixture, LostAckIsReissuedForRetransmitted200) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsRequest() && message.method() == sip::Method::kAck;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  EXPECT_FALSE(record.failed);
  // The callee saw the dialog through to a clean end too.
  ASSERT_EQ(bed_->uas_b()[0]->ua().completed_calls().size(), 1u);
  EXPECT_FALSE(bed_->uas_b()[0]->ua().completed_calls()[0].failed);
  ExpectNoFalsePositives();
}

TEST_F(InjectionFixture, LostByeIsRetransmitted) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsRequest() && message.method() == sip::Method::kBye;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  EXPECT_FALSE(record.failed);
  // Both sides closed.
  EXPECT_EQ(bed_->uas_b()[0]->ua().active_call_count(), 0);
  ExpectNoFalsePositives();
}

TEST_F(InjectionFixture, Lost200ForByeAbsorbedByServerTransaction) {
  DropOnce dropper([](const sip::Message& message) {
    return message.IsResponse() && message.status() == 200 &&
           message.method() == sip::Method::kBye;
  });
  InstallEverywhere(dropper);
  const auto record = RunOneCall();
  EXPECT_TRUE(dropper.fired());
  EXPECT_FALSE(record.failed);
  ExpectNoFalsePositives();
}

}  // namespace
}  // namespace vids::testbed
