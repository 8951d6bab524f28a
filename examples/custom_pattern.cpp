// Authoring a new attack pattern with the EFSM library.
//
//   $ ./build/examples/custom_pattern
//
// The paper argues (§6) that even when a full protocol machine is hard to
// derive, "it is straightforward to develop attack scenarios for known
// attacks". This example demonstrates exactly that workflow with the
// public EFSM API: define a REGISTER-hijacking pattern (an attacker
// re-REGISTERs a victim's address-of-record to its own contact, stealing
// the victim's incoming calls), instantiate it in a machine group, and
// drive it with events — no changes to the vIDS core.
#include <cstdio>

#include "efsm/engine.h"

using namespace vids;
using efsm::Context;
using efsm::Event;
using efsm::MachineDef;
using efsm::StateKind;

namespace {

// Pattern: after a REGISTER binds an AOR to a contact, a REGISTER for the
// same AOR from a *different* source that rebinds it elsewhere within the
// registration's lifetime is a hijack attempt.
MachineDef BuildRegisterHijackPattern() {
  MachineDef def("register-hijack");
  def.set_report_deviations(false);

  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto bound = def.AddState("Bound");
  const auto attack = def.AddState("registration hijack", StateKind::kAttack);

  const auto is_register = [](const Context& c) {
    return c.event().ArgString("method") == "REGISTER";
  };
  const auto same_binding = [](const Context& c) {
    return c.local().Get("v_src_ip") == c.event().Arg("src_ip") &&
           c.local().Get("v_contact") == c.event().Arg("contact");
  };
  const auto remember = [](Context& c) {
    auto& l = c.mutable_local();
    l.Set("v_src_ip", c.event().Arg("src_ip"));
    l.Set("v_contact", c.event().Arg("contact"));
    // Bindings expire: forget after the registration lifetime.
    c.StartTimer("expiry", sim::Duration::Seconds(3600));
  };

  def.On(init, "SIP")
      .When(is_register)
      .Do(remember)
      .To(bound, "AOR bound");
  def.On(bound, "SIP")
      .When([=](const Context& c) { return is_register(c) && same_binding(c); })
      .Do(remember)
      .To(bound, "binding refreshed by its owner");
  def.On(bound, "SIP")
      .When([=](const Context& c) {
        return is_register(c) && !same_binding(c);
      })
      .To(attack, "AOR re-bound from a different source");
  def.On(bound, efsm::TimerEventName("expiry")).To(init, "binding expired");
  def.On(attack, "SIP").To(attack);
  return def;
}

Event Register(std::string src_ip, std::string contact) {
  Event event;
  event.name = "SIP";
  event.args["method"] = std::string("REGISTER");
  event.args["src_ip"] = std::move(src_ip);
  event.args["contact"] = std::move(contact);
  return event;
}

struct PrintingObserver : efsm::Observer {
  void OnTransition(const efsm::MachineInstance& machine,
                    const efsm::Transition& t, const Event&) override {
    std::printf("  %-18s %s\n", machine.name().c_str(), t.label.c_str());
  }
  void OnAttackState(const efsm::MachineInstance& machine, efsm::StateId state,
                     const Event& event) override {
    std::printf(">>> ATTACK '%s' on %s (offending source %s)\n",
                std::string(machine.def().StateName(state)).c_str(),
                machine.group().name().c_str(),
                event.ArgString("src_ip").value_or("?").c_str());
    ++attacks;
  }
  int attacks = 0;
};

}  // namespace

int main() {
  const MachineDef pattern = BuildRegisterHijackPattern();
  std::printf("pattern '%s': %zu states, %zu transitions\n\n",
              pattern.name().c_str(), pattern.state_count(),
              pattern.transitions().size());

  sim::Scheduler scheduler;
  PrintingObserver observer;
  // One group per monitored address-of-record, as the fact base would do:
  // every group of the kind is built from one shape.
  efsm::GroupShape shape;
  shape.AddMachine(pattern, "reg-hijack");
  efsm::MachineGroup group(shape, "bob@b.example.com", scheduler, &observer);
  auto& machine = group.machine(0);

  std::printf("bob's phone registers and refreshes:\n");
  group.DeliverData(machine, Register("10.2.0.10", "sip:bob@10.2.0.10"));
  group.DeliverData(machine, Register("10.2.0.10", "sip:bob@10.2.0.10"));

  std::printf("\nattacker re-registers bob's AOR to itself:\n");
  group.DeliverData(machine, Register("10.9.0.66", "sip:bob@10.9.0.66"));

  std::printf("\n%s\n", observer.attacks == 1
                            ? "hijack detected — pattern authored in ~30 "
                              "lines of definition code"
                            : "unexpected result");
  return observer.attacks == 1 ? 0 : 1;
}
