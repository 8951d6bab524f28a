// TAB-MEM: per-call memory cost of the vIDS (paper §7.3).
//
// Paper claim: one instance of each protocol machine per call; SIP state
// ≈ 450 bytes, RTP state ≈ 40 bytes; growth is linear in concurrent calls
// and low enough to monitor thousands of calls; machines are deleted when
// a call reaches its final state.
//
// The bench is also a gate: it prints what one call group and one media
// group are made of and exits 1 when a group outgrows its budget
// (kCallGroupBudget, kMediaGroupBudget), when an established call costs the
// fact base more than kPerCallBudget at 5,000 calls, or when completed
// calls are not deleted.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/strings.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/spec_machines.h"

using namespace vids;

namespace {

constexpr size_t kCallGroupBudget = 3200;
constexpr size_t kPerCallBudget = 3400;  // fact base bytes per call at 5,000
constexpr size_t kMediaGroupBudget = 1200;

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};

sip::Message MakeInvite(const std::string& call_id, uint16_t caller_port) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(
      sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10),
                                        caller_port})
          .Serialize(),
      "application/sdp");
  return invite;
}

net::Datagram Wrap(const sip::Message& message) {
  net::Datagram dgram;
  dgram.src = kProxyA;
  dgram.dst = kProxyB;
  dgram.payload = message.Serialize();
  return dgram;
}

// Feeds INVITE + 180 + 200 for one call: an established, monitored call.
void OpenCall(ids::Vids& vids, int index) {
  const std::string call_id = "call-" + std::to_string(index) + "@bench";
  const auto invite =
      MakeInvite(call_id, static_cast<uint16_t>(20000 + (index % 20000) * 2));
  vids.Inspect(Wrap(invite), true);
  for (int status : {180, 200}) {
    auto response = sip::Message::MakeResponse(status);
    for (const auto via : invite.Headers("Via")) {
      response.AddHeader("Via", via);
    }
    response.SetFrom(*invite.From());
    auto to = *invite.To();
    to.SetTag("tag-callee");
    response.SetTo(to);
    response.SetCallId(call_id);
    response.SetCseq(*invite.Cseq());
    if (status == 200) {
      response.SetBody(
          sdp::MakeAudioOffer(
              net::Endpoint{net::IpAddress(10, 2, 0, 10),
                            static_cast<uint16_t>(30000 + (index % 17000) * 2)})
              .Serialize(),
          "application/sdp");
    }
    auto dgram = Wrap(response);
    std::swap(dgram.src, dgram.dst);
    vids.Inspect(dgram, false);
  }
}

// Prints what `group` is made of, one line per part, and returns its
// MemoryBytes(). The parts must add up to it.
size_t PrintParts(const char* title, const efsm::MachineGroup& group,
                  bool& pass) {
  const auto& ring = group.flight_recorder();
  const size_t object = sizeof(efsm::MachineGroup);
  const size_t name = common::StringHeapBytes(group.name());
  size_t stores = 0, used = 0, reserved = 0;
  std::string slots;
  const auto add_store = [&](const std::string& scope,
                             const efsm::VariableStore& store) {
    stores += store.HeapBytes();
    used += store.size();
    reserved += store.capacity();
    if (!slots.empty()) slots += ", ";
    slots += scope + " " + std::to_string(store.size()) + "/" +
             std::to_string(store.capacity());
  };
  for (const auto& machine : group.machines()) {
    add_store(machine.name(), machine.local());
  }
  add_store("globals", group.global());
  const size_t total = group.MemoryBytes();
  const size_t parts = object + name + ring.MemoryBytes() + stores;
  std::printf("%s: %zu B\n", title, total);
  std::printf("  object            %5zu B  (machines, timer handles, ring "
              "head)\n",
              object);
  std::printf("  name              %5zu B\n", name);
  std::printf("  flight ring       %5zu B  (%zu records in %zu x %zu B "
              "chunks)\n",
              ring.MemoryBytes(), ring.size(), ring.chunk_count(),
              sizeof(obs::FlightChunk));
  std::printf("  sync queue        %5d B  (one buffer per shape, empty "
              "between packets)\n",
              0);
  std::printf("  variable stores   %5zu B  (%zu of %zu slots used: %s)\n",
              stores, used, reserved, slots.c_str());
  if (parts != total) {
    std::printf("  parts add up to %zu B, not %zu B -> MISMATCH\n", parts,
                total);
    pass = false;
  }
  return total;
}

// One budget line: "<what>: <value> B <= <budget> B -> OK" or "-> OVER".
void Gate(const char* what, size_t value, size_t budget, bool& pass) {
  const bool within = value <= budget;
  std::printf("gate: %-38s %5zu B <= %5zu B -> %s\n", what, value, budget,
              within ? "OK" : "OVER");
  pass = pass && within;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "TAB-MEM", "per-call memory cost and linear growth",
      "~450 B SIP + ~40 B RTP state vars per call; linear growth; "
      "thousands of calls affordable; deleted at final state");

  bool pass = true;
  size_t call_group_bytes = 0;
  size_t media_group_bytes = 0;
  size_t bytes_per_call_at_5000 = 0;

  // --- State-variable payload of one monitored call (the paper's unit) ---
  {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    // The first call of a fresh engine grows its variable stores while the
    // definitions learn how many slots each scope needs; every later call
    // reserves that many up front. Call 1 is the representative one.
    OpenCall(vids, 0);
    OpenCall(vids, 1);
    auto* group = vids.fact_base().FindCall("call-1@bench");
    if (group != nullptr) {
      size_t sip_vars = 0, rtp_vars = 0, sip_total = 0, rtp_total = 0;
      const auto& sip = group->machine(ids::kCallSip);
      const auto& rtp = group->machine(ids::kCallRtp);
      sip_vars = sip.local().MemoryBytes();
      sip_total = sip.MemoryBytes();
      rtp_vars = rtp.local().MemoryBytes();
      rtp_total = rtp.MemoryBytes();
      std::printf("one established call:\n");
      std::printf("  SIP machine: %5zu B state variables (%zu B with "
                  "instance overhead; paper: ~450 B)\n",
                  sip_vars, sip_total);
      std::printf("  RTP machine: %5zu B state variables (%zu B with "
                  "instance overhead; paper: ~40 B)\n",
                  rtp_vars, rtp_total);
      std::printf("  whole group (incl. globals + per-call patterns): %zu B\n",
                  group->MemoryBytes());
      call_group_bytes = PrintParts("call group", *group, pass);
    } else {
      pass = false;
    }
    // One RTP packet toward the callee's media endpoint opens that
    // endpoint's keyed group (media spam, RTP flood, RTCP BYE patterns).
    const net::Endpoint callee_media{net::IpAddress(10, 2, 0, 10), 30000};
    rtp::RtpHeader header;
    header.ssrc = 7;
    header.payload_type = 18;
    net::Datagram rtp_dgram;
    rtp_dgram.src = net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000};
    rtp_dgram.dst = callee_media;
    rtp_dgram.payload = header.Serialize();
    vids.Inspect(rtp_dgram, true);
    media_group_bytes = PrintParts(
        "one media endpoint group (after one RTP packet)",
        vids.fact_base().GetOrCreateMediaGroup(callee_media), pass);
  }

  // --- Linear growth with concurrent calls ---
  bench::PrintRule();
  std::printf("%-18s %-16s %-12s\n", "concurrent calls", "fact base (KB)",
              "bytes/call");
  size_t bytes_at_1000 = 0;
  for (int calls : {100, 500, 1000, 2000, 5000}) {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    for (int i = 0; i < calls; ++i) OpenCall(vids, i);
    const size_t bytes = vids.fact_base().MemoryBytes();
    if (calls == 1000) bytes_at_1000 = bytes;
    if (calls == 5000) bytes_per_call_at_5000 = bytes / 5000;
    std::printf("%-18d %-16.1f %-12zu\n", calls,
                static_cast<double>(bytes) / 1024.0,
                bytes / static_cast<size_t>(calls));
  }
  std::printf("=> 10,000 calls would take ~%.1f MB: easily afforded "
              "(paper's claim)\n",
              static_cast<double>(bytes_at_1000) * 10.0 / (1024.0 * 1024.0));

  // --- Deletion at final state ---
  bench::PrintRule();
  {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    for (int i = 0; i < 200; ++i) OpenCall(vids, i);
    const size_t before = vids.fact_base().MemoryBytes();
    // Tear each call down: ACK + BYE + 200.
    for (int i = 0; i < 200; ++i) {
      const std::string call_id = "call-" + std::to_string(i) + "@bench";
      auto bye = sip::Message::MakeRequest(
          sip::Method::kBye, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
      sip::Via via;
      via.sent_by = kProxyA;
      via.branch = "z9hG4bKbye" + std::to_string(i);
      bye.PushVia(via);
      bye.SetCallId(call_id);
      bye.SetCseq(sip::CSeq{2, sip::Method::kBye});
      sip::NameAddr from;
      from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
      from.SetTag("t");
      bye.SetFrom(from);
      auto to = from;
      to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
      bye.SetTo(to);
      vids.Inspect(Wrap(bye), true);
      auto ok = sip::Message::MakeResponse(200);
      ok.AddHeader("Via", via.ToString());
      ok.SetCallId(call_id);
      ok.SetCseq(sip::CSeq{2, sip::Method::kBye});
      ok.SetFrom(from);
      ok.SetTo(to);
      auto dgram = Wrap(ok);
      std::swap(dgram.src, dgram.dst);
      vids.Inspect(dgram, false);
    }
    // Run out the RTP close linger, then sweep (triggered by one packet).
    scheduler.RunUntil(scheduler.Now() + ids::DetectionConfig{}.rtp_close_linger +
                       sim::Duration::Seconds(5));
    OpenCall(vids, 9999);
    // Reclaimed groups parked on the free lists are reusable capacity, not
    // call state, so the deletion check judges tracked state without them.
    const auto& fact_base = vids.fact_base();
    const size_t after = fact_base.MemoryBytes();
    const size_t parked = fact_base.FreeListBytes();
    const size_t tracked = after - parked;
    std::printf("200 calls open: %zu KB -> all closed + swept: %zu KB "
                "(%llu of 200 calls deleted)\n",
                before / 1024, after / 1024,
                static_cast<unsigned long long>(fact_base.calls_deleted()));
    std::printf("free lists: %zu reclaimed groups parked (trimmed to one "
                "sweep's reclaim), %zu KB\n",
                fact_base.free_group_count(), parked / 1024);
    std::printf("tracked state without the free lists: %zu KB\n",
                tracked / 1024);
    std::printf("state deleted at final call state -> %s\n",
                tracked < before / 4 ? "OK" : "MISMATCH");
    pass = pass && tracked < before / 4;
  }

  bench::PrintRule();
  Gate("call group", call_group_bytes, kCallGroupBudget, pass);
  Gate("fact base per call at 5,000 calls", bytes_per_call_at_5000,
       kPerCallBudget, pass);
  Gate("media endpoint group", media_group_bytes, kMediaGroupBudget, pass);
  std::printf("TAB-MEM gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
