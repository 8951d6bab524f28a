#include <gtest/gtest.h>

#include "efsm/engine.h"

namespace vids::efsm {
namespace {

// Observer that records everything for assertions.
struct RecordingObserver : Observer {
  std::vector<std::string> transitions;
  std::vector<std::string> attacks;
  std::vector<std::string> deviations;
  int nondeterminism = 0;
  int retired = 0;

  void OnTransition(const MachineInstance& machine, const Transition& t,
                    const Event&) override {
    transitions.push_back(machine.name() + ":" + t.label);
  }
  void OnAttackState(const MachineInstance& machine, StateId state,
                     const Event&) override {
    attacks.push_back(machine.name() + ":" +
                      std::string(machine.def().StateName(state)));
  }
  void OnDeviation(const MachineInstance& machine, const Event& event) override {
    deviations.push_back(machine.name() + ":" + event.name);
  }
  void OnNondeterminism(const MachineInstance&, const Event&,
                        size_t) override {
    ++nondeterminism;
  }
  void OnRetired(const MachineInstance&) override { ++retired; }
};

Event Ev(std::string name) {
  Event event;
  event.name = std::move(name);
  return event;
}

// ------------------------------------------------------------------ values

TEST(Value, StoreTypedAccess) {
  VariableStore store;
  store.Set("i", int64_t{42});
  store.Set("d", 2.5);
  store.Set("s", std::string("hi"));
  store.Set("b", true);
  EXPECT_EQ(store.GetInt("i"), 42);
  EXPECT_EQ(store.GetDouble("d"), 2.5);
  EXPECT_EQ(store.GetString("s"), "hi");
  EXPECT_EQ(store.GetBool("b"), true);
  // Wrong-type reads return nullopt.
  EXPECT_FALSE(store.GetInt("s").has_value());
  EXPECT_FALSE(store.GetString("i").has_value());
  // Absent reads return nullopt / monostate.
  EXPECT_FALSE(store.GetInt("nope").has_value());
  EXPECT_TRUE(std::holds_alternative<std::monostate>(store.Get("nope")));
}

TEST(Value, OverwriteAndErase) {
  VariableStore store;
  store.Set("x", int64_t{1});
  store.Set("x", int64_t{2});
  EXPECT_EQ(store.GetInt("x"), 2);
  EXPECT_EQ(store.size(), 1u);
  store.Erase("x");
  EXPECT_FALSE(store.Has("x"));
}

TEST(Value, MemoryBytesGrowsWithContent) {
  VariableStore store;
  const size_t empty = store.MemoryBytes();
  store.Set("some_variable", std::string(100, 'x'));
  EXPECT_GT(store.MemoryBytes(), empty + 100);
}

TEST(Value, ToStringRendersAllAlternatives) {
  EXPECT_EQ(ToString(Value{}), "<unset>");
  EXPECT_EQ(ToString(Value{int64_t{5}}), "5");
  EXPECT_EQ(ToString(Value{std::string("s")}), "s");
  EXPECT_EQ(ToString(Value{true}), "true");
}

// ---------------------------------------------------------------- machines

class EngineFixture : public ::testing::Test {
 protected:
  sim::Scheduler scheduler_;
  RecordingObserver observer_;
};

TEST_F(EngineFixture, BasicTransitionWithPredicateAndAction) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto s1 = def.AddState("S1");
  def.On(s0, "go")
      .When([](const Context& c) { return c.event().ArgInt("x") == 1; })
      .Do([](Context& c) { c.mutable_local().Set("saw", c.event().Arg("x")); })
      .To(s1, "went");

  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  EXPECT_EQ(machine.StateName(), "S0");

  Event blocked = Ev("go");
  blocked.args["x"] = int64_t{2};
  EXPECT_EQ(group.DeliverData(machine, blocked),
            MachineInstance::DeliverResult::kDeviation);
  EXPECT_EQ(machine.StateName(), "S0");

  Event pass = Ev("go");
  pass.args["x"] = int64_t{1};
  EXPECT_EQ(group.DeliverData(machine, pass),
            MachineInstance::DeliverResult::kTransitioned);
  EXPECT_EQ(machine.StateName(), "S1");
  EXPECT_EQ(machine.local().GetInt("saw"), 1);
  ASSERT_EQ(observer_.transitions.size(), 1u);
  EXPECT_EQ(observer_.transitions[0], "m1:went");
}

TEST_F(EngineFixture, EventOutsideAlphabetIsIgnored) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  def.On(s0, "known").To(s0);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  EXPECT_EQ(group.DeliverData(machine, Ev("unknown")),
            MachineInstance::DeliverResult::kNotInAlphabet);
  EXPECT_TRUE(observer_.deviations.empty());
}

TEST_F(EngineFixture, DeviationSuppressedWhenConfigured) {
  MachineDef def("pattern");
  def.set_report_deviations(false);
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto s1 = def.AddState("S1");
  def.On(s0, "e")
      .When([](const Context&) { return false; })
      .To(s1);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  EXPECT_EQ(group.DeliverData(machine, Ev("e")),
            MachineInstance::DeliverResult::kDeviation);
  EXPECT_TRUE(observer_.deviations.empty());  // reported nowhere
}

TEST_F(EngineFixture, UnpredicatedTransitionIsElseBranch) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto hit = def.AddState("HIT");
  const auto other = def.AddState("OTHER");
  def.On(s0, "e")
      .When([](const Context& c) { return c.event().ArgInt("x") == 1; })
      .To(hit, "specific");
  def.On(s0, "e").To(other, "else");

  GroupShape shape;
  shape.AddMachine(def, "m1");
  shape.AddMachine(def, "m2");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& m1 = group.machine(0);
  Event matching = Ev("e");
  matching.args["x"] = int64_t{1};
  group.DeliverData(m1, matching);
  EXPECT_EQ(m1.StateName(), "HIT");
  EXPECT_EQ(observer_.nondeterminism, 0);  // else branch doesn't compete

  auto& m2 = group.machine(1);
  Event not_matching = Ev("e");
  not_matching.args["x"] = int64_t{9};
  group.DeliverData(m2, not_matching);
  EXPECT_EQ(m2.StateName(), "OTHER");
}

TEST_F(EngineFixture, OverlappingPredicatesReportNondeterminism) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto s1 = def.AddState("S1");
  def.On(s0, "e").When([](const Context&) { return true; }).To(s1, "first");
  def.On(s0, "e").When([](const Context&) { return true; }).To(s0, "second");
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("e"));
  EXPECT_EQ(observer_.nondeterminism, 1);
  EXPECT_EQ(machine.StateName(), "S1");  // first in definition order wins
}

TEST_F(EngineFixture, AttackStateRaisesObserver) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto bad = def.AddState("evil", StateKind::kAttack);
  def.On(s0, "boom").To(bad);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("boom"));
  ASSERT_EQ(observer_.attacks.size(), 1u);
  EXPECT_EQ(observer_.attacks[0], "m1:evil");
}

TEST_F(EngineFixture, FinalStateRetiresMachine) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto done = def.AddState("done", StateKind::kFinal);
  def.On(s0, "end").To(done);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("end"));
  EXPECT_TRUE(machine.retired());
  EXPECT_EQ(observer_.retired, 1);
  EXPECT_EQ(group.DeliverData(machine, Ev("end")),
            MachineInstance::DeliverResult::kRetired);
  EXPECT_TRUE(group.AllRetired());
}

TEST_F(EngineFixture, SyncChannelDeliversWithPriority) {
  // Machine A emits on channel "ch" when it receives "data"; machine B
  // consumes from "ch".
  MachineDef def_a("a");
  const auto a0 = def_a.AddState("A0", StateKind::kInitial);
  def_a.On(a0, "data")
      .Do([](Context& c) {
        Event sync;
        sync.name = "delta";
        sync.args["v"] = int64_t{7};
        c.Emit("ch", sync);
      })
      .To(a0, "emit");

  MachineDef def_b("b");
  const auto b0 = def_b.AddState("B0", StateKind::kInitial);
  const auto b1 = def_b.AddState("B1");
  def_b.On(b0, "delta")
      .Do([](Context& c) { c.mutable_local().Set("v", c.event().Arg("v")); })
      .To(b1, "sync received");

  GroupShape shape;
  shape.AddMachine(def_a, "A");
  shape.RouteChannel("ch", shape.AddMachine(def_b, "B"));
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine_a = group.machine(0);
  auto& machine_b = group.machine(1);

  group.DeliverData(machine_a, Ev("data"));
  // The sync event was pumped before DeliverData returned.
  EXPECT_EQ(machine_b.StateName(), "B1");
  EXPECT_EQ(machine_b.local().GetInt("v"), 7);
}

TEST_F(EngineFixture, SyncEventsPreserveFifoOrder) {
  // A emits three numbered sync events in one action; B must consume them
  // in emission order (the paper's reliable FIFO queue assumption, §4.2).
  MachineDef def_a("a");
  const auto a0 = def_a.AddState("A0", StateKind::kInitial);
  def_a.On(a0, "burst")
      .Do([](Context& c) {
        for (int64_t i = 1; i <= 3; ++i) {
          Event sync;
          sync.name = "delta";
          sync.args["n"] = i;
          c.Emit("ch", sync);
        }
      })
      .To(a0);

  MachineDef def_b("b");
  const auto b0 = def_b.AddState("B0", StateKind::kInitial);
  def_b.On(b0, "delta")
      .Do([](Context& c) {
        auto& l = c.mutable_local();
        const auto count = l.GetInt("count").value_or(0);
        // Each arrival must carry exactly count+1.
        l.Set("in_order",
              c.event().ArgInt("n") == count + 1 &&
                  l.GetBool("in_order").value_or(true));
        l.Set("count", count + 1);
      })
      .To(b0);

  GroupShape shape;
  shape.AddMachine(def_a, "A");
  shape.RouteChannel("ch", shape.AddMachine(def_b, "B"));
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine_a = group.machine(0);
  auto& machine_b = group.machine(1);
  group.DeliverData(machine_a, Ev("burst"));
  EXPECT_EQ(machine_b.local().GetInt("count"), 3);
  EXPECT_EQ(machine_b.local().GetBool("in_order"), true);
}

TEST_F(EngineFixture, SyncChainsAreDeliveredTransitively) {
  // A → B → C through two channels in one data delivery.
  MachineDef def_a("a");
  const auto a0 = def_a.AddState("A0", StateKind::kInitial);
  def_a.On(a0, "go")
      .Do([](Context& c) { c.Emit("ab", Event{.name = "hop", .args = {}}); })
      .To(a0);
  MachineDef def_b("b");
  const auto b0 = def_b.AddState("B0", StateKind::kInitial);
  def_b.On(b0, "hop")
      .Do([](Context& c) { c.Emit("bc", Event{.name = "hop", .args = {}}); })
      .To(b0);
  MachineDef def_c("c");
  const auto c0 = def_c.AddState("C0", StateKind::kInitial);
  const auto c1 = def_c.AddState("C1");
  def_c.On(c0, "hop").To(c1);

  GroupShape shape;
  shape.AddMachine(def_a, "A");
  shape.RouteChannel("ab", shape.AddMachine(def_b, "B"));
  shape.RouteChannel("bc", shape.AddMachine(def_c, "C"));
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine_a = group.machine(0);
  auto& machine_c = group.machine(2);
  group.DeliverData(machine_a, Ev("go"));
  EXPECT_EQ(machine_c.StateName(), "C1");
}

TEST_F(EngineFixture, CyclicEmitChainIsBounded) {
  // Two machines that bounce a sync event forever: the pump's cap must
  // break the livelock instead of hanging the IDS. A delivery runs exactly
  // kMaxSyncEvents sync events; the one the last of them emits is dropped
  // and counted, so the next delivery starts from an empty queue instead of
  // resuming the chain.
  MachineDef def_ping("ping");
  const auto p0 = def_ping.AddState("P0", StateKind::kInitial);
  def_ping.On(p0, "ball")
      .Do([](Context& c) { c.Emit("to_pong", Event{.name = "ball", .args = {}}); })
      .To(p0);
  MachineDef def_pong("pong");
  const auto q0 = def_pong.AddState("Q0", StateKind::kInitial);
  def_pong.On(q0, "ball")
      .Do([](Context& c) { c.Emit("to_ping", Event{.name = "ball", .args = {}}); })
      .To(q0);

  GroupShape shape;
  const size_t ping_index = shape.AddMachine(def_ping, "ping");
  shape.RouteChannel("to_pong", shape.AddMachine(def_pong, "pong"));
  shape.RouteChannel("to_ping", ping_index);
  obs::MetricsRegistry registry;
  const EngineMetrics metrics = EngineMetrics::Registered(registry);
  MachineGroup group(shape, "g", scheduler_, &observer_, &metrics);
  auto& ping = group.machine(ping_index);
  const obs::Counter& dropped = registry.GetCounter("efsm.sync_dropped");
  const obs::Counter& transitions = registry.GetCounter("efsm.transitions");

  group.DeliverData(ping, Ev("ball"));  // must return, not livelock
  EXPECT_EQ(transitions.value(), 1 + MachineGroup::kMaxSyncEvents);
  EXPECT_EQ(dropped.value(), 1u);
  group.DeliverData(ping, Ev("ball"));
  EXPECT_EQ(transitions.value(), 2 * (1 + MachineGroup::kMaxSyncEvents));
  EXPECT_EQ(dropped.value(), 2u);
  EXPECT_GT(shape.SharedBytes(), 0u);  // the queue kept its buffer
}

// Two groups of one shape share its δ queue. A delivery nested inside
// another group's pump (here: an observer that feeds group B while group A
// pumps) must see only its own sync events, and A's must all reach A's
// machines in emission order — also the one A's machine emits when B's
// delivery feeds A again from inside.
TEST_F(EngineFixture, NestedDeliveriesSeeOnlyTheirOwnSyncEvents) {
  MachineDef def_src("src");
  const auto s0 = def_src.AddState("S0", StateKind::kInitial);
  def_src.On(s0, "go")
      .Do([](Context& c) {
        for (int64_t n = 1; n <= 2; ++n) {
          Event sync;
          sync.name = "delta";
          sync.args["n"] = n;
          c.Emit("ch", std::move(sync));
        }
      })
      .To(s0, "emit two");
  def_src.On(s0, "again")
      .Do([](Context& c) {
        Event sync;
        sync.name = "delta";
        sync.args["n"] = int64_t{3};
        c.Emit("ch", std::move(sync));
      })
      .To(s0, "emit one");
  MachineDef def_dst("dst");
  const auto d0 = def_dst.AddState("D0", StateKind::kInitial);
  def_dst.On(d0, "delta").To(d0, "got");

  struct Feeder : Observer {
    MachineGroup* a = nullptr;
    MachineGroup* b = nullptr;
    std::vector<std::string> log;
    void OnTransition(const MachineInstance& machine, const Transition&,
                      const Event& event) override {
      std::string line = machine.group().name() + "." + machine.name() + " " +
                         event.name;
      if (const auto n = event.ArgInt("n")) line += std::to_string(*n);
      log.push_back(line);
      // A's first sync event feeds B; B's first feeds A again, from inside
      // B's pump.
      if (&machine.group() == a && event.ArgInt("n") == 1) {
        b->DeliverData(b->machine(0), Ev("go"));
      } else if (&machine.group() == b && event.ArgInt("n") == 1) {
        a->DeliverData(a->machine(0), Ev("again"));
      }
    }
  } feeder;

  GroupShape shape;
  shape.AddMachine(def_src, "src");
  shape.RouteChannel("ch", shape.AddMachine(def_dst, "dst"));
  MachineGroup a(shape, "A", scheduler_, &feeder);
  MachineGroup b(shape, "B", scheduler_, &feeder);
  feeder.a = &a;
  feeder.b = &b;
  a.DeliverData(a.machine(0), Ev("go"));
  const std::vector<std::string> expected = {
      "A.src go",     "A.dst delta1",  // A's pump: first sync event
      "B.src go",     "B.dst delta1",  // B's nested delivery and pump
      "A.src again",                   // A fed again inside B's pump
      "B.dst delta2",                  // B's pump skips A's event
      "A.dst delta2", "A.dst delta3",  // A's pump, emission order
  };
  EXPECT_EQ(feeder.log, expected);
  // Every entry was delivered or dropped: a new delivery queues from empty.
  feeder.a = feeder.b = nullptr;
  feeder.log.clear();
  b.DeliverData(b.machine(0), Ev("again"));
  EXPECT_EQ(feeder.log,
            (std::vector<std::string>{"B.src again", "B.dst delta3"}));
}

TEST_F(EngineFixture, SyncEventsAcrossChannelsFollowEmissionOrder) {
  // One queue per shape: a delivery's sync events run in the order they
  // were emitted, so each channel is FIFO and channels interleave as sent.
  MachineDef def_a("a");
  const auto a0 = def_a.AddState("A0", StateKind::kInitial);
  def_a.On(a0, "go")
      .Do([](Context& c) {
        c.Emit("x", Event{.name = "x1", .args = {}});
        c.Emit("y", Event{.name = "y1", .args = {}});
        c.Emit("x", Event{.name = "x2", .args = {}});
      })
      .To(a0);
  MachineDef def_sink("sink");
  const auto k0 = def_sink.AddState("K0", StateKind::kInitial);
  for (const char* name : {"x1", "x2", "y1"}) def_sink.On(k0, name).To(k0);

  GroupShape shape;
  shape.AddMachine(def_a, "A");
  shape.RouteChannel("x", shape.AddMachine(def_sink, "X"));
  shape.RouteChannel("y", shape.AddMachine(def_sink, "Y"));
  MachineGroup group(shape, "g", scheduler_, &observer_);
  group.DeliverData(group.machine(0), Ev("go"));
  ASSERT_EQ(observer_.transitions.size(), 4u);
  EXPECT_EQ(observer_.transitions[1], "X:K0--x1-->K0");
  EXPECT_EQ(observer_.transitions[2], "Y:K0--y1-->K0");
  EXPECT_EQ(observer_.transitions[3], "X:K0--x2-->K0");
}

TEST_F(EngineFixture, EmitOnUnroutedChannelIsDroppedSilently) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  def.On(s0, "go")
      .Do([](Context& c) { c.Emit("nowhere", Event{.name = "x", .args = {}}); })
      .To(s0);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("go"));
  EXPECT_TRUE(observer_.deviations.empty());
}

TEST_F(EngineFixture, GlobalVariablesAreSharedAcrossMachines) {
  MachineDef writer("w");
  const auto w0 = writer.AddState("W0", StateKind::kInitial);
  writer.On(w0, "set")
      .Do([](Context& c) { c.mutable_global().Set("g_x", int64_t{9}); })
      .To(w0);
  MachineDef reader("r");
  const auto r0 = reader.AddState("R0", StateKind::kInitial);
  const auto r1 = reader.AddState("R1");
  reader.On(r0, "check")
      .When([](const Context& c) { return c.global().GetInt("g_x") == 9; })
      .To(r1);

  GroupShape shape;
  shape.AddMachine(writer, "W");
  shape.AddMachine(reader, "R");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine_w = group.machine(0);
  auto& machine_r = group.machine(1);
  group.DeliverData(machine_w, Ev("set"));
  group.DeliverData(machine_r, Ev("check"));
  EXPECT_EQ(machine_r.StateName(), "R1");
}

TEST_F(EngineFixture, TimersDeliverTimerEvents) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto armed = def.AddState("armed");
  const auto fired = def.AddState("fired");
  def.On(s0, "arm")
      .Do([](Context& c) { c.StartTimer("T", sim::Duration::Millis(100)); })
      .To(armed);
  def.On(armed, TimerEventName("T")).To(fired);

  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("arm"));
  EXPECT_EQ(machine.StateName(), "armed");
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Millis(50));
  EXPECT_EQ(machine.StateName(), "armed");
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Millis(200));
  EXPECT_EQ(machine.StateName(), "fired");
}

TEST_F(EngineFixture, CancelTimerPreventsFiring) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto fired = def.AddState("fired");
  def.On(s0, "arm")
      .Do([](Context& c) { c.StartTimer("T", sim::Duration::Millis(100)); })
      .To(s0, "armed");
  def.On(s0, "disarm")
      .Do([](Context& c) { c.CancelTimer("T"); })
      .To(s0, "disarmed");
  def.On(s0, TimerEventName("T")).To(fired);

  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("arm"));
  group.DeliverData(machine, Ev("disarm"));
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(1));
  EXPECT_EQ(machine.StateName(), "S0");
}

TEST_F(EngineFixture, StaleTimerEventIsIgnoredSilently) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto s1 = def.AddState("S1");
  def.On(s0, "arm")
      .Do([](Context& c) { c.StartTimer("T", sim::Duration::Millis(10)); })
      .To(s1, "armed");
  // S1 has no transition for timer:T — the expiry must not be a deviation.
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("arm"));
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(1));
  EXPECT_TRUE(observer_.deviations.empty());
  EXPECT_EQ(machine.StateName(), "S1");
}

TEST_F(EngineFixture, RetiringCancelsPendingTimers) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto done = def.AddState("done", StateKind::kFinal);
  def.On(s0, "arm")
      .Do([](Context& c) { c.StartTimer("T", sim::Duration::Millis(10)); })
      .To(done);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  auto& machine = group.machine(0);
  group.DeliverData(machine, Ev("arm"));
  EXPECT_TRUE(machine.retired());
  scheduler_.RunUntil(sim::Time{} + sim::Duration::Seconds(1));
  // No pending events leaked from the retired machine's timer.
  EXPECT_EQ(scheduler_.PendingEvents(), 0u);
}

TEST_F(EngineFixture, StoresReserveWhatTheirDefinitionNeeded) {
  // The first group learns how many variables each scope needs; a later
  // fresh group reserves exactly that before its first action, and a reset
  // group keeps the slots it had.
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  def.On(s0, "set")
      .Do([](Context& c) {
        for (const char* name : {"a", "b", "c", "d", "e"}) {
          c.mutable_local().Set(name, int64_t{1});
        }
        for (const char* name : {"g1", "g2", "g3"}) {
          c.mutable_global().Set(name, int64_t{2});
        }
      })
      .To(s0);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  {
    MachineGroup first(shape, "first", scheduler_, &observer_);
    first.DeliverData(first.machine(0), Ev("set"));
  }
  EXPECT_EQ(def.local_slots(), 5u);
  EXPECT_EQ(shape.global_slots(), 3u);

  MachineGroup fresh(shape, "fresh", scheduler_, &observer_);
  EXPECT_EQ(fresh.machine(0).local().capacity(), 0u);  // nothing eagerly
  fresh.DeliverData(fresh.machine(0), Ev("set"));
  EXPECT_EQ(fresh.machine(0).local().capacity(), 5u);
  EXPECT_EQ(fresh.global().capacity(), 3u);
  fresh.Reset("recycled");
  EXPECT_EQ(fresh.machine(0).local().size(), 0u);
  EXPECT_EQ(fresh.machine(0).local().capacity(), 5u);
  EXPECT_EQ(fresh.global().capacity(), 3u);
}

TEST_F(EngineFixture, FlightRingTakesChunksAsItRecordsAndReturnsThemOnReset) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  def.On(s0, "tick").To(s0);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  const size_t empty = group.MemoryBytes();
  EXPECT_EQ(shape.flight_pool().in_use(), 0u);
  for (int i = 0; i < 9; ++i) group.DeliverData(group.machine(0), Ev("tick"));
  // Nine records span two chunks, which the group counts.
  EXPECT_EQ(shape.flight_pool().in_use(), 2u);
  EXPECT_EQ(group.MemoryBytes(), empty + 2 * sizeof(obs::FlightChunk));
  for (int i = 0; i < 40; ++i) group.DeliverData(group.machine(0), Ev("tick"));
  EXPECT_EQ(shape.flight_pool().in_use(), obs::FlightRecorder::kChunks);
  EXPECT_EQ(group.ExplainFlight().size(), obs::FlightRecorder::kCapacity);
  group.Reset("g2");
  EXPECT_EQ(shape.flight_pool().in_use(), 0u);
  EXPECT_EQ(group.MemoryBytes(), empty);
  EXPECT_TRUE(group.ExplainFlight().empty());
}

TEST_F(EngineFixture, GroupMemoryAccountsInstances) {
  MachineDef def("m");
  def.AddState("S0", StateKind::kInitial);
  GroupShape shape;
  shape.AddMachine(def, "m1");
  MachineGroup group(shape, "g", scheduler_, &observer_);
  const size_t empty = group.MemoryBytes();
  group.machine(0).local().Set("v", std::string(1000, 'x'));
  EXPECT_GT(group.MemoryBytes(), empty + 1000);
}

TEST(MachineDefCheck, ToDotRendersStatesAndEdges) {
  MachineDef def("demo");
  const auto s0 = def.AddState("Start", StateKind::kInitial);
  const auto bad = def.AddState("Evil State", StateKind::kAttack);
  const auto done = def.AddState("Done", StateKind::kFinal);
  def.On(s0, "hit").When([](const Context&) { return true; }).To(bad, "boom");
  def.On(s0, "end").To(done);
  const std::string dot = def.ToDot();
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("Start"), std::string::npos);
  EXPECT_NE(dot.find("Evil State"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);    // attack styling
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos); // final styling
  EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
  EXPECT_NE(dot.find("P(x̄,v̄)"), std::string::npos);  // predicate marker
}

TEST(MachineDefCheck, ValidateFlagsUnreachableState) {
  MachineDef def("m");
  def.AddState("S0", StateKind::kInitial);
  def.AddState("Island");
  const auto findings = def.Validate();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("Island"), std::string::npos);
  EXPECT_NE(findings[0].find("unreachable"), std::string::npos);
}

TEST(MachineDefCheck, ValidateFlagsTrapState) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto trap = def.AddState("Stuck");
  def.On(s0, "go").To(trap);
  const auto findings = def.Validate();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("trap"), std::string::npos);
}

TEST(MachineDefCheck, ValidateFlagsTransitionsOutOfFinalStates) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto done = def.AddState("Done", StateKind::kFinal);
  def.On(s0, "end").To(done);
  def.On(done, "zombie").To(s0);
  const auto findings = def.Validate();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("final"), std::string::npos);
}

TEST(MachineDefCheck, ValidateAcceptsWellFormedMachine) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  const auto s1 = def.AddState("S1");
  const auto done = def.AddState("Done", StateKind::kFinal);
  def.On(s0, "a").To(s1);
  def.On(s1, "b").To(done);
  def.On(s1, "loop").To(s1);
  EXPECT_TRUE(def.Validate().empty());
}

TEST(MachineDefCheck, TransitionToUnknownStateThrows) {
  MachineDef def("m");
  const auto s0 = def.AddState("S0", StateKind::kInitial);
  EXPECT_THROW(def.On(s0, "e").To(StateId{42}), std::invalid_argument);
}

TEST(MachineDefCheck, InstanceWithoutInitialStateThrows) {
  MachineDef def("m");
  def.AddState("S0");  // not initial
  GroupShape shape;
  EXPECT_THROW(shape.AddMachine(def, "m1"), std::invalid_argument);
}

}  // namespace
}  // namespace vids::efsm
